module Dag = Prbp_dag.Dag
module Topo = Prbp_dag.Topo
module Solver = Prbp_solver.Solver
module Heuristic = Prbp_solver.Heuristic
module Thresholds = Prbp_solver.Thresholds
module Optimize = Prbp_solver.Optimize
module Verifier = Prbp_pebble.Verifier
module Rbp_engine = Prbp_pebble.Rbp
module Prbp_engine = Prbp_pebble.Prbp
module Clock = Prbp_obs.Clock
module Span = Prbp_obs.Span
module Metrics = Prbp_obs.Metrics

let m_candidates =
  Metrics.counter ~help:"Upper-bound candidate strategies attempted"
    "prbp_upper_candidates_total"

let m_accepted =
  Metrics.counter ~help:"Upper-bound candidates that survived verification"
    "prbp_upper_accepted_total"

type meth = { base : string; reorder_seed : int option; optimized : bool }

let meth_label m =
  m.base
  ^ (if m.reorder_seed <> None then "+reorder" else "")
  ^ if m.optimized then "+opt" else ""

type 'm t = {
  cost : int;
  moves : 'm list;
  meth : meth;
  verified : [ `Literal | `Engine ];
}

(* The literal verifier keeps persistent sets of red and blue nodes and
   marked edges, so a replay costs O(moves · (r + deg · log m)).  Within
   the gate below it certifies every candidate; beyond it the optimized
   engine's rule checker is the independent certifier.  Measured per
   candidate (release build, 2-core Xeon, OCaml 5.1): FFT(64) r=6 PRBP
   Belady, 768 edges and 2645 moves, takes 1.2 ms to verify against
   1.0 ms for the heuristic that produced it (RBP: 0.5 ms against
   0.9 ms); attention QK^T(14,7) r=4, 4116 edges and 12904 moves, past
   the gate, would take 6.3 ms against 5.1 ms. *)
let literal_ok g moves =
  Dag.n_edges g <= 4000 && List.length moves <= 20_000

let verify_rbp ~r g moves =
  if literal_ok g moves then
    match Verifier.R.check ~r g moves with
    | Ok c -> Ok (c, `Literal)
    | Error e -> Error e
  else
    match Rbp_engine.check (Rbp_engine.config ~r ()) g moves with
    | Ok c -> Ok (c, `Engine)
    | Error e -> Error e

let verify_prbp ~r g moves =
  if literal_ok g moves then
    match Verifier.P.check ~r g moves with
    | Ok c -> Ok (c, `Literal)
    | Error e -> Error e
  else
    match Prbp_engine.check (Prbp_engine.config ~r ()) g moves with
    | Ok c -> Ok (c, `Engine)
    | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Deterministic order perturbation: a Lehmer LCG drives adjacent
   transpositions, applied only where the pair is not an edge — the
   perturbed array stays a topological order, so the pebblers accept
   it without re-checking. *)

let lcg st = st * 48271 mod 0x7fffffff

let perturb g base seed =
  let order = Array.copy base in
  let n = Array.length order in
  let st = ref (max 1 seed) in
  for _ = 1 to max 4 (n / 8) do
    st := lcg !st;
    let i = !st mod (n - 1) in
    let u = order.(i) and v = order.(i + 1) in
    if not (Dag.has_edge g u v) then begin
      order.(i) <- v;
      order.(i + 1) <- u
    end
  done;
  order

let hill_climb_iters = 24

type clock = { time_ok : unit -> bool }

let make_clock (budget : Solver.Budget.t) =
  let deadline = Clock.deadline_of_millis budget.Solver.Budget.max_millis in
  let time_ok () =
    (not (Clock.expired deadline))
    && match budget.Solver.Budget.cancelled with
       | Some f -> not (f ())
       | None -> true
  in
  { time_ok }

(* Shared portfolio driver: [candidates] yields (meth, lazy moves);
   every candidate is certified by [verify] before its cost is
   believed, and a rejected or crashing candidate is skipped. *)
let run_portfolio ~verify ~clock ~base_candidates ~reorder ~optimize =
  let best = ref None in
  let consider meth moves =
    match verify moves with
    | Error _ -> ()
    | Ok (cost, verified) ->
        Metrics.Counter.incr m_accepted;
        (match !best with
        | Some b when b.cost <= cost -> ()
        | _ -> best := Some { cost; moves; meth; verified })
  in
  let attempt ?(span = "upper.candidate") meth produce =
    Metrics.Counter.incr m_candidates;
    let go () =
      match produce () with
      | moves -> consider meth moves
      | exception (Invalid_argument _ | Failure _) -> ()
    in
    if Span.enabled () then
      Span.with_ ~name:span ~attrs:[ ("method", meth_label meth) ] go
    else go ()
  in
  let go () =
    List.iter (fun (meth, produce) -> attempt meth produce) base_candidates;
    (match reorder with
    | None -> ()
    | Some run_with_order ->
        let seed = ref 1 in
        let iters = ref 0 in
        while !iters < hill_climb_iters && clock.time_ok () do
          incr iters;
          seed := lcg !seed;
          let s = !seed in
          attempt ~span:"upper.reorder"
            { base = "belady"; reorder_seed = Some s; optimized = false }
            (fun () -> run_with_order s)
        done);
    (match !best with
    | Some b when List.length b.moves <= 2500 && clock.time_ok () ->
        attempt ~span:"upper.optimize" { b.meth with optimized = true }
          (fun () -> optimize b.moves)
    | _ -> ());
    match !best with
    | Some b -> Ok b
    | None -> Error "Upper: no candidate strategy survived verification"
  in
  if not (Span.enabled ()) then go ()
  else
    Span.with_ ~name:"upper.portfolio" (fun () ->
        let r = go () in
        (match r with
        | Ok b ->
            Span.add_attr "method" (meth_label b.meth);
            Span.add_attr "cost" (string_of_int b.cost)
        | Error _ -> ());
        r)

let policies =
  [ ("belady", Heuristic.Belady); ("lru", Heuristic.Lru);
    ("fifo", Heuristic.Fifo) ]

let meth base = { base; reorder_seed = None; optimized = false }

(* ------------------------------------------------------------------ *)
(* Banded topological orders.  The default topological order sweeps
   layered DAGs row by row, thrashing the cache on every long row;
   grouping [h] consecutive depth levels into a band and emitting the
   band component by component keeps each component's working set
   resident, so values are loaded once per band instead of once per
   level (on FFT this is the classic blocked schedule).

   Band [p] {e spans} levels [p·h .. (p+1)·h] and {e emits} levels
   (p·h .. (p+1)·h] — plus level 0 for band 0 — so each level is
   emitted exactly once and band boundaries overlap by one level (the
   values the next band consumes).  Components are connected components
   of the edges inside the span; emission order is bands ascending,
   components by minimum emitted node id, nodes by (level, id).

   The result is always a topological order: an edge (u,v) has
   level u < level v, so either u is emitted by an earlier band, or
   both endpoints lie in v's band's span — making them one component,
   ordered by level. *)

let banded_order g ~h =
  let n = Dag.n_nodes g in
  let levels = Topo.levels g in
  let nlev = Array.length levels in
  let level_of = Array.make n 0 in
  Array.iteri (fun l ns -> List.iter (fun v -> level_of.(v) <- l) ns) levels;
  let order = Array.make n 0 in
  let pos = ref 0 in
  let n_bands = max 1 ((nlev - 1 + h - 1) / h) in
  for p = 0 to n_bands - 1 do
    let lo = p * h and hi = min (nlev - 1) ((p + 1) * h) in
    let span = ref [] in
    for l = lo to hi do
      List.iter (fun v -> span := v :: !span) levels.(l)
    done;
    let span = !span in
    let parent = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace parent v v) span;
    let rec find v =
      let pv = Hashtbl.find parent v in
      if pv = v then v
      else begin
        let root = find pv in
        Hashtbl.replace parent v root;
        root
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
    in
    List.iter
      (fun v ->
        if level_of.(v) > lo then
          Dag.iter_pred (fun u -> if level_of.(u) >= lo then union u v) g v)
      span;
    let emitted =
      List.filter
        (fun v -> level_of.(v) > lo || (p = 0 && level_of.(v) = 0))
        span
    in
    let by_root = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let root = find v in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_root root) in
        Hashtbl.replace by_root root (v :: prev))
      emitted;
    let comps =
      Hashtbl.fold
        (fun _ vs acc ->
          let key = List.fold_left min max_int vs in
          let vs =
            List.sort
              (fun a b -> compare (level_of.(a), a) (level_of.(b), b))
              vs
          in
          (key, vs) :: acc)
        by_root []
    in
    List.iter
      (fun (_, vs) ->
        List.iter
          (fun v ->
            order.(!pos) <- v;
            incr pos)
          vs)
      (List.sort compare comps)
  done;
  order

let banded_heights = [ 1; 2; 3 ]

let banded_candidates run_with_order g =
  if Dag.n_nodes g < 2 then []
  else
    List.map
      (fun h ->
        ( meth (Printf.sprintf "banded%d" h),
          fun () -> run_with_order (banded_order g ~h) ))
      banded_heights

let rbp ?(budget = Solver.Budget.default) ~r g =
  if r < Thresholds.rbp_feasible_r g then
    Error "Upper.rbp: r is below the RBP feasibility threshold (max in-degree + 1)"
  else
    let clock = make_clock budget in
    let base_candidates =
      List.map
        (fun (name, policy) ->
          (meth name, fun () -> Heuristic.rbp ~policy ~r g))
        policies
      @ banded_candidates
          (fun order -> Heuristic.rbp ~policy:Heuristic.Belady ~order ~r g)
          g
    in
    let reorder =
      if Dag.n_nodes g >= 3 then
        let base = Topo.sort g in
        Some
          (fun s -> Heuristic.rbp ~policy:Heuristic.Belady ~order:(perturb g base s) ~r g)
      else None
    in
    run_portfolio ~verify:(verify_rbp ~r g) ~clock ~base_candidates ~reorder
      ~optimize:(fun moves -> Optimize.rbp (Rbp_engine.config ~r ()) g moves)

let prbp ?(budget = Solver.Budget.default) ~r g =
  if r < Thresholds.prbp_feasible_r g then
    Error "Upper.prbp: r is below the PRBP feasibility threshold (2 on any DAG with an edge)"
  else
    let clock = make_clock budget in
    let base_candidates =
      List.concat_map
        (fun (name, policy) ->
          [ (meth name, fun () -> Heuristic.prbp ~policy ~r g);
            ( meth (name ^ "+defer"),
              fun () -> Heuristic.prbp ~policy ~defer_saves:true ~r g ) ])
        policies
      @ banded_candidates
          (fun order -> Heuristic.prbp ~policy:Heuristic.Belady ~order ~r g)
          g
      @
      if Dag.n_edges g <= 4000 then
        [ (meth "greedy-edges", fun () -> Heuristic.prbp_greedy ~r g) ]
      else []
    in
    let reorder =
      if Dag.n_nodes g >= 3 then
        let base = Topo.sort g in
        Some
          (fun s ->
            Heuristic.prbp ~policy:Heuristic.Belady ~order:(perturb g base s) ~r g)
      else None
    in
    run_portfolio ~verify:(verify_prbp ~r g) ~clock ~base_candidates ~reorder
      ~optimize:(fun moves -> Optimize.prbp (Prbp_engine.config ~r ()) g moves)
