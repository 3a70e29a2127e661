(* The traced layer sweep.  Every traced run attributes its workload's
   inputs to each layer they reach, by timing calls into that layer's
   public functions from outside: nothing inside the library is
   changed or instrumented for the benchmark.  Each workload hands over
   its instances; the sweep runs the bounds, solver, pebble, partition,
   wire and dag layers on all of them, the exact engine and the
   frontier on those in reach, and (outside the serve workload, which
   measures the daemon under load) one miss and one hit per instance
   and route through prbpd. *)

open Common
module Wire = Prbp.Wire
module Stats = Perfbench_stats.Stats
module Lower = Prbp.Bounds.Lower
module Upper = Prbp.Bounds.Upper
module Metrics = Prbp.Obs.Metrics

(* The rules registered at the time the benchmark was defined.  The
   list is fixed so the metric names stay the same when rules come or
   go: an unknown name selects nothing and reads as a zero bound. *)
let rules =
  [ "trivial"; "source-cut"; "sink-cut"; "closed-form"; "exact-dominator";
    "exact-spartition"; "exact-edge" ]

let serve_routes = [ "solve"; "bracket"; "frontier" ]

(* Every per-layer metric, in report order, with its unit.  Each traced
   run emits all of them, measured on its own workload's inputs. *)
let names =
  [ ("host.calib_s", "s"); ("obs.trace_overhead_pct", "%");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("solver.engine.states_per_s", "1/s"); ("solver.engine.explored", "count");
    ("solver.engine.prune_ratio", "ratio"); ("solver.engine.words_per_state", "words");
    ("solver.engine.par_speedup", "x"); ("frontier.sweep_s", "s");
    ("frontier.settled", "count"); ("solver.heuristic.s", "s");
    ("solver.optimize.s", "s"); ("pebble.verifier.s", "s");
    ("pebble.verifier.moves_per_s", "1/s"); ("pebble.check.s", "s");
    ("bounds.lower.s", "s") ]
  @ List.concat_map
      (fun r -> [ ("bounds.lower." ^ r ^ ".s", "s"); ("bounds.lower." ^ r ^ ".bound", "count") ])
      rules
  @ [ ("bounds.upper.s", "s"); ("bounds.upper.candidates", "count");
      ("bounds.upper.accept_ratio", "ratio"); ("bounds.segment.s", "s");
      ("partition.minpart.s", "s"); ("wire.encode_us", "us"); ("wire.decode_us", "us");
      ("wire.bytes", "bytes"); ("dag.canonical_us", "us"); ("serve.hit_ms.p50", "ms");
      ("serve.miss_ms.p50", "ms"); ("serve.hit_ratio", "ratio"); ("serve.rejected", "count") ]
  @ List.map (fun r -> ("serve.status." ^ r ^ ".mean_ms", "ms")) serve_routes
  @ [ ("serve.queued_max", "count") ]

(* Exact solves in the sweep stop at this many states; every instance
   the workloads mark [exact] settles well inside it. *)
let sweep_budget = Prbp.Solver.Budget.states 5_000_000

let m_candidates = Metrics.counter "prbp_upper_candidates_total"
let m_accepted = Metrics.counter "prbp_upper_accepted_total"

type moves = R of Prbp.Move.R.t list | P of Prbp.Move.P.t list

let n_moves = function R l -> List.length l | P l -> List.length l

(* Running sums that become ratios or means at the end of the sweep. *)
type acc = {
  mutable explored : int;
  mutable pruned : int;
  mutable words : int;
  mutable t_j1 : float;
  mutable t_jn : float;
  mutable replayed_moves : int;
  mutable wire : (float * float * int) list;  (** encode µs, decode µs, bytes *)
  mutable canonical : float list;
}

let check tally what ok = Stats.Tally.record tally ~what ok

let wire_record acc encode decode =
  let bytes = String.length (encode ()) in
  let enc = us_per_call encode in
  let s = encode () in
  let dec = us_per_call (fun () -> decode s) in
  acc.wire <- (enc, dec, bytes) :: acc.wire

let engine_solve sheet acc tally ~jobs (i : inst) =
  let solve ~jobs () =
    match i.game with
    | Prbp ->
        let o =
          Prbp.Exact_prbp.solve ~budget:sweep_budget ~want_strategy:true ~jobs
            (Prbp.Prbp_game.config ~r:i.r ()) i.dag
        in
        let s =
          match o with
          | Prbp.Solver.Optimal { strategy = Some m; _ } -> Some (Wire.Prbp_strategy m)
          | _ -> None
        in
        (Wire.outcome_of ~game:Wire.Prbp ~r:i.r ?strategy:s ~dag:i.dag o, o |> Prbp.Solver.stats_of, Prbp.Solver.optimal_cost o)
    | Rbp ->
        let o =
          Prbp.Exact_rbp.solve ~budget:sweep_budget ~want_strategy:true ~jobs
            (Prbp.Rbp.config ~r:i.r ()) i.dag
        in
        let s =
          match o with
          | Prbp.Solver.Optimal { strategy = Some m; _ } -> Some (Wire.Rbp_strategy m)
          | _ -> None
        in
        (Wire.outcome_of ~game:Wire.Rbp ~r:i.r ?strategy:s ~dag:i.dag o, o |> Prbp.Solver.stats_of, Prbp.Solver.optimal_cost o)
  in
  let t1, (rec1, st, opt1) = timed (fun () -> layer sheet "solver.engine" (solve ~jobs:1)) in
  let tn, (_, _, optn) = timed (fun () -> layer sheet "solver.engine.par" (solve ~jobs)) in
  check tally "sweep: exact solve did not settle" (opt1 <> None);
  check tally "sweep: jobs=1 and jobs=N optima differ" (opt1 = optn);
  acc.explored <- acc.explored + st.Prbp.Solver.explored;
  acc.pruned <- acc.pruned + st.Prbp.Solver.pruned;
  acc.words <- acc.words + st.Prbp.Solver.mem_words;
  acc.t_j1 <- acc.t_j1 +. t1;
  acc.t_jn <- acc.t_jn +. tn;
  wire_record acc (fun () -> Wire.encode_outcome rec1) (fun s -> Wire.decode_outcome s);
  opt1

let frontier_sweep sheet tally (i : inst) ~p ~rs =
  let module F = Prbp.Frontier.Frontier in
  let game = match i.game with Rbp -> F.Rbp_mc | Prbp -> F.Prbp_mc in
  let f =
    layer sheet "frontier.sweep_s" (fun () -> F.sweep ~budget:sweep_budget game ~p ~rs i.dag)
  in
  check tally "sweep: unverified frontier witness"
    (List.for_all (fun (p : F.point) -> p.F.verified || p.F.comm_upper = None) f.F.points);
  Sheet.add sheet "frontier.settled"
    (float_of_int (List.length (List.filter (fun (p : F.point) -> p.F.settled) f.F.points)))

let bounds_layers sheet tally (i : inst) =
  let g = i.dag and r = i.r in
  let game = lower_game i.game in
  (* the heuristic pebbler alone, and the post-optimizer on its output
     where the upper portfolio would run it (≤ 2500 moves) *)
  let h =
    layer sheet "solver.heuristic.s" (fun () ->
        match i.game with
        | Prbp -> P (Prbp.Heuristic.prbp ~r g)
        | Rbp -> R (Prbp.Heuristic.rbp ~r g))
  in
  if n_moves h <= 2500 then
    ignore
      (layer sheet "solver.optimize.s" (fun () ->
           match h with
           | P m -> P (Prbp.Optimize.prbp (Prbp.Prbp_game.config ~r ()) g m)
           | R m -> R (Prbp.Optimize.rbp (Prbp.Rbp.config ~r ()) g m)));
  let lower = layer sheet "bounds.lower.s" (fun () -> Lower.compute ~game ~r g) in
  List.iter
    (fun rule ->
      let l = layer sheet ("bounds.lower." ^ rule ^ ".s") (fun () -> Lower.compute ~rules:[ rule ] ~game ~r g) in
      Sheet.add sheet ("bounds.lower." ^ rule ^ ".bound") (float_of_int l.Lower.bound))
    rules;
  let c0 = Metrics.Counter.value m_candidates and a0 = Metrics.Counter.value m_accepted in
  let upper =
    layer sheet "bounds.upper.s" (fun () ->
        match i.game with
        | Prbp -> Result.map (fun (u : _ Upper.t) -> u.Upper.cost) (Upper.prbp ~r g)
        | Rbp -> Result.map (fun (u : _ Upper.t) -> u.Upper.cost) (Upper.rbp ~r g))
  in
  Sheet.add sheet "bounds.upper.candidates"
    (float_of_int (Metrics.Counter.value m_candidates - c0));
  Sheet.add sheet "bounds.upper.accepted"
    (float_of_int (Metrics.Counter.value m_accepted - a0));
  ignore (layer sheet "bounds.segment.s" (fun () -> Prbp.Bounds.Segment.greedy g ~s:(2 * r)));
  if Prbp.Dag.n_nodes g <= 18 then
    ignore
      (layer sheet "partition.minpart.s" (fun () ->
           match i.game with
           | Prbp -> Prbp.Minpart.prbp_bound_dom g ~r
           | Rbp -> Prbp.Minpart.rbp_bound g ~r));
  match upper with
  | Error e -> check tally ("sweep: upper portfolio failed: " ^ e) false
  | Ok cost -> check tally "sweep: lower bound above upper bound" (lower.Lower.bound <= cost)

(* The bracket's certificate, replayed through the literal Verifier and
   the engine's checker, then through the wire codec as the daemon
   would cache it. *)
let certificate sheet acc tally (i : inst) (b : Prbp.Bounds.Bracket.t) =
  let r = i.r and g = i.dag in
  let literal =
    layer sheet "pebble.verifier.s" (fun () ->
        match b.moves with
        | Prbp.Bounds.Bracket.Prbp_moves m -> Prbp.Verifier.P.check ~r g m
        | Prbp.Bounds.Bracket.Rbp_moves m -> Prbp.Verifier.R.check ~r g m)
  in
  let engine =
    layer sheet "pebble.check.s" (fun () ->
        match b.moves with
        | Prbp.Bounds.Bracket.Prbp_moves m -> Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r ()) g m
        | Prbp.Bounds.Bracket.Rbp_moves m -> Prbp.Rbp.check (Prbp.Rbp.config ~r ()) g m)
  in
  acc.replayed_moves <-
    acc.replayed_moves
    + (match b.moves with
      | Prbp.Bounds.Bracket.Prbp_moves m -> List.length m
      | Prbp.Bounds.Bracket.Rbp_moves m -> List.length m);
  check tally "sweep: bracket lower above upper" (b.lower.bound <= b.upper);
  check tally "sweep: literal verifier disagrees with the bracket" (literal = Ok b.upper);
  check tally "sweep: engine checker disagrees with the bracket" (engine = Ok b.upper);
  let w = Wire.bracket_of ~with_moves:true b in
  wire_record acc (fun () -> Wire.encode_bracket w) (fun s -> Wire.decode_bracket s)

let sweep sheet tally ~jobs insts =
  let acc =
    { explored = 0; pruned = 0; words = 0; t_j1 = 0.; t_jn = 0.;
      replayed_moves = 0; wire = []; canonical = [] }
  in
  Metrics.set_enabled true;
  List.iter
    (fun (i : inst) ->
      Span.with_ ~name:("instance." ^ i.label) (fun () ->
          acc.canonical <-
            layer sheet "dag.canonical" (fun () ->
                us_per_call (fun () -> Prbp.Serialize.canonical i.dag))
            :: acc.canonical;
          bounds_layers sheet tally i;
          match
            layer sheet "bounds.bracket" (fun () ->
                match i.game with
                | Prbp -> Prbp.Bounds.Bracket.prbp ~r:i.r i.dag
                | Rbp -> Prbp.Bounds.Bracket.rbp ~r:i.r i.dag)
          with
          | Error e -> check tally ("sweep: bracket failed: " ^ e) false
          | Ok b ->
              certificate sheet acc tally i b;
              if i.exact then begin
                let opt = engine_solve sheet acc tally ~jobs i in
                check tally "sweep: optimum outside its bracket"
                  (match opt with
                  | Some c -> b.lower.bound <= c && c <= b.upper
                  | None -> false)
              end;
              Option.iter (fun (p, rs) -> frontier_sweep sheet tally i ~p ~rs) i.frontier))
    insts;
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  Sheet.set sheet "solver.engine.explored" (float_of_int acc.explored);
  Sheet.set sheet "solver.engine.states_per_s"
    (if acc.t_j1 > 0. then float_of_int acc.explored /. acc.t_j1 else 0.);
  Sheet.set sheet "solver.engine.prune_ratio" (ratio acc.pruned acc.explored);
  Sheet.set sheet "solver.engine.words_per_state" (ratio acc.words acc.explored);
  Sheet.set sheet "solver.engine.par_speedup"
    (if acc.t_jn > 0. then acc.t_j1 /. acc.t_jn else 0.);
  Sheet.set sheet "pebble.verifier.moves_per_s"
    (let t = Sheet.get sheet "pebble.verifier.s" in
     if t > 0. then float_of_int acc.replayed_moves /. t else 0.);
  Sheet.set sheet "bounds.upper.accept_ratio"
    (let c = Sheet.get sheet "bounds.upper.candidates" in
     if c > 0. then Sheet.get sheet "bounds.upper.accepted" /. c else 0.);
  Sheet.set sheet "wire.encode_us" (mean (List.map (fun (e, _, _) -> e) acc.wire));
  Sheet.set sheet "wire.decode_us" (mean (List.map (fun (_, d, _) -> d) acc.wire));
  Sheet.set sheet "wire.bytes"
    (mean (List.map (fun (_, _, b) -> float_of_int b) acc.wire));
  Sheet.set sheet "dag.canonical_us" (mean acc.canonical)

(* ------------------------------------------------------------------ *)
(* The serve layer *)

type served = {
  mutable hits : float list;  (** seconds *)
  mutable misses : float list;
  mutable rejected : int;
  mutable queued_max : int;
}

let served () = { hits = []; misses = []; rejected = 0; queued_max = 0 }

(* File one exchange under the cache header the daemon answered with. *)
let file (s : served) dt reply outcome =
  match reply with
  | Ok { Client.status = 503; _ } -> s.rejected <- s.rejected + 1
  | Ok { Client.status = 200; cache; _ } when Result.is_ok outcome ->
      if cache = "hit" then s.hits <- dt :: s.hits else s.misses <- dt :: s.misses
  | _ -> ()

let serve_metrics sheet (s : served) (st : Wire.status_report option) =
  let p50 = function [] -> 0. | l -> 1e3 *. Stats.median l in
  let nh = List.length s.hits and nm = List.length s.misses in
  Sheet.set sheet "serve.hit_ms.p50" (p50 s.hits);
  Sheet.set sheet "serve.miss_ms.p50" (p50 s.misses);
  Sheet.set sheet "serve.hit_ratio"
    (if nh + nm = 0 then 0. else float_of_int nh /. float_of_int (nh + nm));
  Sheet.set sheet "serve.rejected" (float_of_int s.rejected);
  List.iter
    (fun r ->
      let mean =
        match st with
        | None -> 0.
        | Some st -> (
            match
              List.find_opt (fun (x : Wire.route_stat) -> x.Wire.route = "/v1/" ^ r) st.Wire.routes
            with
            | Some x when x.Wire.count > 0 -> 1e3 *. x.Wire.sum_s /. float_of_int x.Wire.count
            | _ -> 0.)
      in
      Sheet.set sheet ("serve.status." ^ r ^ ".mean_ms") mean)
    serve_routes;
  let queued = match st with Some st -> st.Wire.queued | None -> 0 in
  Sheet.set sheet "serve.queued_max" (float_of_int (max s.queued_max queued))

(* The wire request for one instance on one route; a frontier request
   sweeps the instance's processors and capacities. *)
let request (i : inst) kind =
  match (kind, i.frontier) with
  | Wire.Frontier, Some (p, rs) ->
      let game = match i.game with Rbp -> Wire.Multi_rbp p | Prbp -> Wire.Multi_prbp p in
      Wire.request ~want_strategy:true ~kind ~game ~rs ~r:i.r i.dag
  | _ ->
      let game = match i.game with Rbp -> Wire.Rbp | Prbp -> Wire.Prbp in
      Wire.request ~want_strategy:true ~kind ~game ~r:i.r i.dag

(* One miss and one hit per instance and route through a fresh daemon.
   Its deadline cap is short: a paper-scale bracket with a deadline
   runs every lower-bound rule the deadline admits, and the serve layer
   is measured here, not the portfolio. *)
let serve_round_trip sheet tally ~prbpd insts =
  match Client.start ~max_deadline_ms:2000 ~prbpd ~workers:nproc () with
  | Error e ->
      check tally ("serve: " ^ e) false;
      serve_metrics sheet (served ()) None
  | Ok d ->
      Fun.protect
        ~finally:(fun () -> Client.stop d)
        (fun () ->
          let s = served () and m = Client.memo () in
          Span.with_ ~name:"serve.round_trip" (fun () ->
              List.iter
                (fun (i : inst) ->
                  let kinds =
                    (if i.exact then [ Wire.Solve ] else [])
                    @ [ Wire.Bracket ]
                    @ if i.frontier = None then [] else [ Wire.Frontier ]
                  in
                  List.iter
                    (fun kind ->
                      let rq = request i kind in
                      let path = Client.route_of_kind kind and body = Wire.encode_request rq in
                      for _ = 1 to 2 do
                        let dt, reply, outcome = Client.send ~port:d.Client.port m tally ~path ~body rq in
                        file s dt reply outcome
                      done)
                    kinds)
                insts);
          serve_metrics sheet s (Result.to_option (Client.status ~port:d.Client.port)))
