(* Workload [exact]: proven optima on small DAGs.  The engine (Engine,
   State_table) does almost all the work; bounds, wire and serve do
   none.  A pass covers the engine's pruned, prune-free, parallel and
   multiprocessor paths:

   - PRBP tree(2,3) at r=3 (fixed): branch-and-bound prunes about two
     of every three states;
   - PRBP FFT(4) at r=3 (fixed), solved at jobs=1 and at jobs=nproc:
     1.5 M states and no prunes, so prune_off_after fires;
   - two RBP Random_dag 4x4, in-degree ≤ 2, density 1, at r=4 (seeded):
     no prunes;
   - one PRBP Random_dag 5x2, in-degree ≤ 2, density 1, at r=3
     (seeded), solved at jobs=1 and at jobs=nproc: no prunes;
   - the exact multi-PRBP frontier sweep on fig1 at p=2, r ∈ {3,4}.

   Seeded DAGs differ a lot in state-space size (PRBP Random_dag 6x2 at
   the default density explores 0.6 M to 3.8 M states), so the fixed
   paper-family instances carry most of a pass, and pass k draws fresh
   seeded DAGs from (workload seed, k): the median pass is then a
   median over many draws.  Density 1 fills every node's in-degree
   quota, which narrows the sizes further.  FFT(4) also sets the peak
   state table: no seeded draw comes near its 1.5 M states, so peak
   memory does not depend on whether some draw crossed a table-doubling
   threshold. *)

open Common
module F = Prbp.Frontier.Frontier

let name = "exact"

(* Optima that hold for any seed (tree(2,3) at r=3 is the closed form of
   Appendix A.2; FFT(4) at r=3; fig1's communication volumes at p=2),
   and the optima
   of the first pass's seeded DAGs at the default seed, recorded when
   the benchmark was defined. *)
let reference = [ ("tree(2,3)", 11); ("fft4", 12) ]

let default_seed = 1

let default_reference : (string * int) list = []

let fig1_reference = [ (3, 4); (4, 2) ]

type state = {
  tree : inst;
  fft4 : inst;
  fig1 : inst;
  seed : int;
  mutable pass : int;
  optima : (int * string, inst * int) Hashtbl.t;  (** (pass, label) → proven optimum *)
}

let seeded seed pass =
  let rbps =
    List.init 2 (fun k ->
        let g =
          Prbp.Graphs.Random_dag.make ~density:1.0 ~max_in_degree:2
            ~seed:(derive seed "exact-rbp" ((100 * pass) + k)) ~layers:4 ~width:4 ()
        in
        inst ~exact:true (Printf.sprintf "rbp-4x4#%d" k) Rbp ~r:(rbp_r ~at_least:4 g) g)
  in
  let g =
    Prbp.Graphs.Random_dag.make ~density:1.0 ~max_in_degree:2
      ~seed:(derive seed "exact-prbp" (100 * pass)) ~layers:5 ~width:2 ()
  in
  (rbps, [ inst ~exact:true "prbp-5x2" Prbp ~r:3 g ])

let setup ~seed =
  let tree =
    inst ~exact:true "tree(2,3)" Prbp ~r:3
      (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag
  in
  (* warm-up: one small solve brings the engine's code and heap into
     their working state before anything is timed *)
  ignore (Prbp.Exact_prbp.solve (Prbp.Prbp_game.config ~r:3 ()) tree.dag);
  {
    tree;
    fft4 = inst ~exact:true "fft4" Prbp ~r:3 (Prbp.Graphs.Fft.make ~m:4).Prbp.Graphs.Fft.dag;
    fig1 = inst ~frontier:(2, [ 3; 4 ]) "fig1" Prbp ~r:3 (fst (Prbp.Graphs.Fig1.full ()));
    seed;
    pass = 0;
    optima = Hashtbl.create 64;
  }

let instances s =
  let rbps, prbps = seeded s.seed 0 in
  (s.tree :: s.fft4 :: rbps) @ prbps @ [ s.fig1 ]

let solve ~jobs (i : inst) =
  match i.game with
  | Prbp -> Prbp.Solver.optimal_cost (Prbp.Exact_prbp.solve ~jobs (Prbp.Prbp_game.config ~r:i.r ()) i.dag)
  | Rbp -> Prbp.Solver.optimal_cost (Prbp.Exact_rbp.solve ~jobs (Prbp.Rbp.config ~r:i.r ()) i.dag)

let expect s ~pass (i : inst) cost =
  match List.assoc_opt i.label reference with
  | Some c when c <> cost -> Error (Printf.sprintf "optimum %d, reference %d" cost c)
  | _ -> (
      match List.assoc_opt i.label default_reference with
      | Some c when s.seed = default_seed && pass = 0 && c <> cost ->
          Error (Printf.sprintf "optimum %d, default-seed reference %d" cost c)
      | _ ->
          Hashtbl.replace s.optima (pass, i.label) (i, cost);
          Ok ())

let solve_op s ~pass ?(suffix = "") ~jobs (i : inst) =
  {
    label = i.label ^ suffix;
    run =
      (fun () ->
        let opt = solve ~jobs i in
        fun () ->
          match opt with
          | None -> Error "not proven optimal"
          | Some c -> (
              match Hashtbl.find_opt s.optima (pass, i.label) with
              | Some (_, c1) when suffix <> "" && c1 <> c ->
                  Error (Printf.sprintf "jobs=%d optimum %d, jobs=1 optimum %d" jobs c c1)
              | _ -> expect s ~pass i c));
  }

let frontier_op s =
  {
    label = "frontier fig1";
    run =
      (fun () ->
        let f = F.sweep F.Prbp_mc ~p:2 ~rs:[ 3; 4 ] s.fig1.dag in
        fun () ->
          let pts = List.map (fun (p : F.point) -> (p.F.r, p)) f.F.points in
          List.fold_left
            (fun acc (r, want) ->
              Result.bind acc (fun () ->
                  match List.assoc_opt r pts with
                  | Some p when p.F.settled && p.F.verified && p.F.comm_lower = want -> Ok ()
                  | Some p ->
                      Error
                        (Printf.sprintf "r=%d: comm [%d,%s], settled=%b verified=%b, want %d" r
                           p.F.comm_lower
                           (match p.F.comm_upper with Some u -> string_of_int u | None -> "-")
                           p.F.settled p.F.verified want)
                  | None -> Error (Printf.sprintf "no point at r=%d" r)))
            (Ok ()) fig1_reference);
  }

let ops s ~jobs () =
  let pass = s.pass in
  s.pass <- pass + 1;
  let rbps, prbps = seeded s.seed pass in
  let both i = [ solve_op s ~pass ~jobs:1 i; solve_op s ~pass ~suffix:" jobs=N" ~jobs i ] in
  [ solve_op s ~pass ~jobs:1 s.tree ]
  @ both s.fft4
  @ List.map (solve_op s ~pass ~jobs:1) rbps
  @ List.concat_map both prbps
  @ [ frontier_op s ]

let bracket (i : inst) =
  match i.game with
  | Prbp -> Prbp.Bounds.Bracket.prbp ~r:i.r i.dag
  | Rbp -> Prbp.Bounds.Bracket.rbp ~r:i.r i.dag

(* After the passes: every optimum must lie inside a certified bracket
   of the same DAG.  Returns the summed bracket width over a fixed set:
   tree(2,3), FFT(4), fig1 at both capacities, and the seeded DAGs of
   the first twenty passes, whether or not the run reached them. *)
let after s tally =
  let record = Perfbench_stats.Stats.Tally.record tally in
  Printf.printf "first-pass optima:%s\n%!"
    (String.concat ""
       (List.filter_map
          (fun (i : inst) ->
            Option.map (fun (_, c) -> Printf.sprintf " %s=%d" i.label c)
              (Hashtbl.find_opt s.optima (0, i.label)))
          (instances s)));
  Hashtbl.iter
    (fun (_, label) ((i : inst), opt) ->
      match bracket i with
      | Ok b ->
          record
            ~what:(Printf.sprintf "%s: optimum %d outside bracket [%d,%d]" label opt b.lower.bound b.upper)
            (b.lower.bound <= opt && opt <= b.upper)
      | Error e -> record ~what:(label ^ ": bracket failed: " ^ e) false)
    s.optima;
  let width = ref 0 in
  List.iter
    (fun (r, opt) ->
      match Prbp.Bounds.Multi_bounds.prbp ~p:2 ~r s.fig1.dag with
      | Ok b ->
          width := !width + b.width;
          record
            ~what:(Printf.sprintf "fig1@%d: optimum %d outside bracket [%d,%d]" r opt b.lower.bound b.upper)
            (b.lower.bound <= opt && opt <= b.upper)
      | Error e -> record ~what:("fig1: multi bracket failed: " ^ e) false)
    fig1_reference;
  let fixed =
    s.tree :: s.fft4
    :: List.concat_map (fun p -> let r, q = seeded s.seed p in r @ q) (List.init 20 Fun.id)
  in
  List.iter
    (fun i ->
      match bracket i with
      | Ok b -> width := !width + b.width
      | Error e -> record ~what:(i.label ^ ": bracket failed: " ^ e) false)
    fixed;
  !width
