(* Differential testing: the optimized engines vs the literal-rules
   verifier, on hand-written strategies, heuristic traces, and random
   walks probing every candidate move at every state. *)
open Test_util
module Dag = Prbp.Dag
module V = Prbp.Verifier
module R = Prbp.Move.R
module P = Prbp.Move.P

let test_agree_on_strategies () =
  let g, ids = Prbp.Graphs.Fig1.full () in
  check_ok "fig1 rbp" (V.agree_rbp ~r:4 g (Prbp.Strategies.fig1_rbp ids));
  check_ok "fig1 prbp" (V.agree_prbp ~r:4 g (Prbp.Strategies.fig1_prbp ids));
  let t = Prbp.Graphs.Tree.make ~k:2 ~depth:3 in
  check_ok "tree rbp" (V.agree_rbp ~r:3 t.Prbp.Graphs.Tree.dag (Prbp.Strategies.tree_rbp t));
  check_ok "tree prbp"
    (V.agree_prbp ~r:3 t.Prbp.Graphs.Tree.dag (Prbp.Strategies.tree_prbp t));
  let mv = Prbp.Graphs.Matvec.make ~m:3 in
  check_ok "matvec"
    (V.agree_prbp ~r:6 mv.Prbp.Graphs.Matvec.dag (Prbp.Strategies.matvec_prbp mv))

let test_agree_on_heuristic_traces () =
  List.iter
    (fun g ->
      let r = max 2 (Dag.max_in_degree g + 1) in
      check_ok "rbp trace" (V.agree_rbp ~r g (Prbp.Heuristic.rbp ~r g));
      check_ok "prbp trace" (V.agree_prbp ~r:2 g (Prbp.Heuristic.prbp ~r:2 g));
      check_ok "greedy trace"
        (V.agree_prbp ~r:3 g (Prbp.Heuristic.prbp_greedy ~r:3 g)))
    (Lazy.force random_dags)

let test_verifier_run_costs () =
  let g, ids = Prbp.Graphs.Fig1.full () in
  (match V.R.run ~r:4 g (Prbp.Strategies.fig1_rbp ids) with
  | Ok st ->
      check_int "rbp cost" 3 (V.R.io st);
      check_true "terminal" (V.R.is_terminal g st)
  | Error e -> Alcotest.fail e);
  match V.P.run ~r:4 g (Prbp.Strategies.fig1_prbp ids) with
  | Ok st ->
      check_int "prbp cost" 2 (V.P.io st);
      check_true "terminal" (V.P.is_terminal g st)
  | Error e -> Alcotest.fail e

let test_verifier_rejects () =
  let g = Prbp.Graphs.Basic.diamond () in
  check_err "rbp bad compute" (V.R.run ~r:3 g [ R.Compute 3 ]);
  check_err "rbp slide rejected" (V.R.run ~r:3 g [ R.Load 0; R.Slide (0, 1) ]);
  check_err "prbp clear rejected" (V.P.run ~r:3 g [ P.Clear 1 ]);
  check_err "prbp blue target"
    (V.P.run ~r:3 g [ P.Load 0; P.Compute (3, 3) ])

(* Random walk probing all candidate moves at every state: the engine
   and the verifier must agree on the legality of every candidate, not
   just on the chosen path. *)
let all_rbp_candidates g =
  let n = Dag.n_nodes g in
  List.concat_map
    (fun v -> [ R.Load v; R.Save v; R.Compute v; R.Delete v ])
    (List.init n (fun v -> v))

let all_prbp_candidates g =
  let n = Dag.n_nodes g in
  List.concat_map (fun v -> [ P.Load v; P.Save v; P.Delete v ])
    (List.init n (fun v -> v))
  @ List.map (fun (u, v) -> P.Compute (u, v)) (Dag.edges g)

let prop_rbp_walk =
  qcase ~count:25 "random RBP walks: engines agree on every candidate"
    QCheck.(pair (int_range 1 5_000) (int_range 0 1_000_000))
    (fun (seed, walk_seed) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~layers:3 ~width:3 ~density:0.4 ()
      in
      let r = Dag.max_in_degree g + 1 in
      let st = Random.State.make [| walk_seed |] in
      let eng = Prbp.Rbp.start (Prbp.Rbp.config ~r ()) g in
      let vstate = ref (V.R.initial g) in
      let candidates = all_rbp_candidates g in
      let ok = ref true in
      (try
         for _step = 1 to 60 do
           (* the verifier (persistent state) probes candidates; the
              engine is then required to agree on the chosen one, and
              on every rejected one after the walk *)
           let legal =
             List.filter
               (fun m ->
                 match V.R.step ~r g !vstate m with
                 | Ok _ -> true
                 | Error _ -> false)
               candidates
           in
           match legal with
           | [] -> raise Exit
           | _ ->
               let m = List.nth legal (Random.State.int st (List.length legal)) in
               (match (Prbp.Rbp.apply eng m, V.R.step ~r g !vstate m) with
               | Ok (), Ok st' -> vstate := st'
               | Error _, Error _ -> ()
               | _ -> ok := false)
         done
       with Exit -> ());
      (* the illegal candidates must be rejected by the engine too *)
      List.iter
        (fun m ->
          match V.R.step ~r g !vstate m with
          | Ok _ -> ()
          | Error _ -> (
              (* engine must also reject; apply on a scratch replay *)
              match Prbp.Rbp.apply eng m with
              | Error _ -> ()
              | Ok () -> ok := false))
        candidates;
      !ok && Prbp.Rbp.io_cost eng = V.R.io !vstate)

let prop_prbp_walk =
  qcase ~count:25 "random PRBP walks: engines agree on every candidate"
    QCheck.(pair (int_range 1 5_000) (int_range 0 1_000_000))
    (fun (seed, walk_seed) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~layers:3 ~width:2 ~density:0.4 ()
      in
      let r = 3 in
      let st = Random.State.make [| walk_seed |] in
      let eng = Prbp.Prbp_game.start (Prbp.Prbp_game.config ~r ()) g in
      let vstate = ref (V.P.initial g) in
      let candidates = all_prbp_candidates g in
      let ok = ref true in
      (try
         for _step = 1 to 80 do
           let legal =
             List.filter
               (fun m ->
                 match V.P.step ~r g !vstate m with
                 | Ok _ -> true
                 | Error _ -> false)
               candidates
           in
           match legal with
           | [] -> raise Exit
           | _ ->
               let m = List.nth legal (Random.State.int st (List.length legal)) in
               (match (Prbp.Prbp_game.apply eng m, V.P.step ~r g !vstate m) with
               | Ok (), Ok st' -> vstate := st'
               | Error _, Error _ -> ()
               | _ -> ok := false)
         done
       with Exit -> ());
      List.iter
        (fun m ->
          match V.P.step ~r g !vstate m with
          | Ok _ -> ()
          | Error _ -> (
              match Prbp.Prbp_game.apply eng m with
              | Error _ -> ()
              | Ok () -> ok := false))
        candidates;
      !ok && Prbp.Prbp_game.io_cost eng = V.P.io !vstate)

(* Paper-scale strategies: FFT(64) at r=6 under Belady, plain and in
   banded (h=2) order, and attention QK^T(14,7) at r=4 under Belady —
   the candidates a bracket certifies. *)
let fft64 = lazy (Prbp.Graphs.Fft.make ~m:64).Prbp.Graphs.Fft.dag

let qkt = lazy (Prbp.Graphs.Attention.qkt ~m:14 ~d:7).Prbp.Graphs.Matmul.dag

let paper_rbp () =
  let g = Lazy.force fft64 in
  let banded = Prbp.Bounds.Upper.banded_order g ~h:2 in
  [
    ("fft64 belady", 6, g, Prbp.Heuristic.rbp ~r:6 g);
    ("fft64 banded", 6, g, Prbp.Heuristic.rbp ~order:banded ~r:6 g);
  ]

let paper_prbp () =
  let g = Lazy.force fft64 and q = Lazy.force qkt in
  let banded = Prbp.Bounds.Upper.banded_order g ~h:2 in
  [
    ("fft64 belady", 6, g, Prbp.Heuristic.prbp ~r:6 g);
    ("fft64 banded", 6, g, Prbp.Heuristic.prbp ~order:banded ~r:6 g);
    ("qkt(14,7) belady", 4, q, Prbp.Heuristic.prbp ~r:4 q);
  ]

let test_agree_at_paper_scale () =
  List.iter
    (fun (name, r, g, moves) ->
      check_ok ("rbp " ^ name) (V.agree_rbp ~r g moves);
      check_int ("rbp cost " ^ name)
        (rbp_cost ~r g moves)
        (Result.get_ok (V.R.check ~r g moves)))
    (paper_rbp ());
  List.iter
    (fun (name, r, g, moves) ->
      check_ok ("prbp " ^ name) (V.agree_prbp ~r g moves);
      check_int ("prbp cost " ^ name)
        (prbp_cost ~r g moves)
        (Result.get_ok (V.P.check ~r g moves)))
    (paper_prbp ())

(* Mutations that must make a strategy illegal part-way through: drop
   the first save of a value that is loaded back later, or swap a load
   with the compute right after it that consumes the loaded value. *)
let drop_nth i l = List.filteri (fun j _ -> j <> i) l

let swap_at i l =
  let a = Array.of_list l in
  let t = a.(i) in
  a.(i) <- a.(i + 1);
  a.(i + 1) <- t;
  Array.to_list a

let find_index p l =
  let rec go i = function
    | [] -> Alcotest.fail "no mutation point"
    | x :: rest -> if p i x then i else go (i + 1) rest
  in
  go 0 l

(* index of a save of [v] that is v's first save, with v's next
   save-or-load after it a load *)
let droppable_save ~is_save ~is_load g moves =
  let a = Array.of_list moves in
  let next_is_load i v =
    let rec go j =
      j < Array.length a
      && (if is_load a.(j) = Some v then true
          else if is_save a.(j) = Some v then false
          else go (j + 1))
    in
    go (i + 1)
  in
  let saved = Hashtbl.create 16 in
  find_index
    (fun i m ->
      match is_save m with
      | Some v when Hashtbl.mem saved v -> false
      | Some v ->
          Hashtbl.add saved v ();
          (not (Dag.is_source g v)) && next_is_load i v
      | None -> false)
    moves

let rbp_save = function R.Save v -> Some v | _ -> None
let rbp_load = function R.Load v -> Some v | _ -> None
let prbp_save = function P.Save v -> Some v | _ -> None
let prbp_load = function P.Load v -> Some v | _ -> None

let test_mutants_rejected_at_same_index () =
  let rejected name ~agree ~literal ~engine =
    check_ok (name ^ ": same verdict, same index") agree;
    check_err (name ^ ": literal rejects a move") literal;
    check_err (name ^ ": engine rejects") engine
  in
  List.iter
    (fun (name, r, g, moves) ->
      let arr = Array.of_list moves in
      let swap =
        find_index
          (fun i m ->
            i + 1 < Array.length arr
            &&
            match (m, arr.(i + 1)) with
            | R.Load v, R.Compute w -> List.mem v (Dag.preds g w)
            | _ -> false)
          moves
      in
      let drop =
        droppable_save ~is_save:rbp_save ~is_load:rbp_load g moves
      in
      List.iter
        (fun (what, m) ->
          rejected ("rbp " ^ name ^ " " ^ what) ~agree:(V.agree_rbp ~r g m)
            ~literal:(V.R.run ~r g m)
            ~engine:(Prbp.Rbp.check (Prbp.Rbp.config ~r ()) g m))
        [ ("drop save", drop_nth drop moves); ("swap", swap_at swap moves) ])
    (paper_rbp ());
  List.iter
    (fun (name, r, g, moves) ->
      let arr = Array.of_list moves in
      let swap =
        find_index
          (fun i m ->
            i + 1 < Array.length arr
            &&
            match (m, arr.(i + 1)) with
            | P.Load v, P.Compute (u, _) -> u = v
            | _ -> false)
          moves
      in
      let drop =
        droppable_save ~is_save:prbp_save ~is_load:prbp_load g moves
      in
      List.iter
        (fun (what, m) ->
          rejected ("prbp " ^ name ^ " " ^ what) ~agree:(V.agree_prbp ~r g m)
            ~literal:(V.P.run ~r g m)
            ~engine:(Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r ()) g m))
        [ ("drop save", drop_nth drop moves); ("swap", swap_at swap moves) ])
    (paper_prbp ())

let suite =
  [
    ( "verifier",
      [
        case "agrees on paper strategies" test_agree_on_strategies;
        case "agrees on heuristic traces" test_agree_on_heuristic_traces;
        case "literal costs" test_verifier_run_costs;
        case "literal rejections" test_verifier_rejects;
        case "agrees at paper scale" test_agree_at_paper_scale;
        case "paper-scale mutants rejected at the same index"
          test_mutants_rejected_at_same_index;
        prop_rbp_walk;
        prop_prbp_walk;
      ] );
  ]
