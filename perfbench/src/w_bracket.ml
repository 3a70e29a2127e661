(* Workload [bracket]: certified brackets under the default budget,
   which has no wall-clock deadline, so the work done and the interval
   returned are the same on every pass.  Bounds, the heuristic pebblers
   and the verifier do the work; the search engine is nearly absent.

   - PRBP FFT(64) at r=6: the literal Verifier takes most of each
     candidate's time, the heuristic a few percent;
   - PRBP attention QKᵀ(14,7) at r=4: 4116 edges put its candidates past
     the literal-verifier gate (4000 edges) onto the engine checker, and
     the heuristic pebbler and the GC dominate (46 M minor words and
     about 570 major collections per bracket).  QKᵀ(16,8) does the same
     work at 7-9 s a bracket, which leaves a 30 s run too few passes
     for a steady median; QKᵀ(12,8) falls under the gate, where the
     literal Verifier takes 70 s;
   - RBP FFT(64) at r=6;
   - one seeded RBP Random_dag 5x3 (15 nodes, in-degree ≤ 2), small
     enough that the exact Minpart rules run and that its exact optimum,
     which the bracket must contain, settles.

   FFT(128) and matmul 10³ take 18 s and 50 s per bracket, too long
   for a pass, so they are left out. *)

open Common
module Stats = Perfbench_stats.Stats
module Bracket = Prbp.Bounds.Bracket

let name = "bracket"

type state = {
  set : inst list;
  random : inst;
  (* every distinct certificate seen per instance, with its claimed
     cost: the literal Verifier replays each once, after the passes,
     so its seconds stay out of the measured window *)
  certs : (string, Bracket.moves * int) Hashtbl.t;
  widths : (string, int) Hashtbl.t;
}

let fft = lazy (Prbp.Graphs.Fft.make ~m:64).Prbp.Graphs.Fft.dag

let setup ~seed =
  let fft = Lazy.force fft in
  let qkt = (Prbp.Graphs.Attention.qkt ~m:14 ~d:7).Prbp.Graphs.Matmul.dag in
  let g =
    Prbp.Graphs.Random_dag.make ~max_in_degree:2 ~seed:(derive seed "bracket-random" 0)
      ~layers:5 ~width:3 ()
  in
  let random = inst ~exact:true "random-5x3" Rbp ~r:(rbp_r ~at_least:3 g) g in
  (* warm-up: the cheapest paper-scale bracket of the set *)
  ignore (Bracket.rbp ~r:6 fft);
  {
    set =
      [ inst "fft64-prbp" Prbp ~r:6 fft; inst "attention-qkt" Prbp ~r:4 qkt;
        (* the traced run also sweeps this DAG's four-processor
           frontier, the frontier's bracketed path *)
        inst ~frontier:(4, [ 4; 8 ]) "fft64-rbp" Rbp ~r:6 fft; random ];
    random;
    certs = Hashtbl.create 8;
    widths = Hashtbl.create 8;
  }

let instances s = s.set

let bracket (i : inst) =
  match i.game with
  | Prbp -> Bracket.prbp ~r:i.r i.dag
  | Rbp -> Bracket.rbp ~r:i.r i.dag

let literal ~r g = function
  | Bracket.Prbp_moves m -> Prbp.Verifier.P.check ~r g m
  | Bracket.Rbp_moves m -> Prbp.Verifier.R.check ~r g m

let engine ~r g = function
  | Bracket.Prbp_moves m -> Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r ()) g m
  | Bracket.Rbp_moves m -> Prbp.Rbp.check (Prbp.Rbp.config ~r ()) g m

(* lower ≤ upper, and the strategy replays to [upper] through the
   engine's checker now and through the literal Verifier in [after] *)
let check s (i : inst) = function
  | Error e -> Error ("no bracket: " ^ e)
  | Ok (b : Bracket.t) ->
      if not (List.mem (b.moves, b.upper) (Hashtbl.find_all s.certs i.label)) then
        Hashtbl.add s.certs i.label (b.moves, b.upper);
      if b.lower.bound > b.upper then
        Error (Printf.sprintf "lower %d > upper %d" b.lower.bound b.upper)
      else if engine ~r:i.r i.dag b.moves <> Ok b.upper then
        Error "strategy does not replay to upper (engine checker)"
      else begin
        Hashtbl.replace s.widths i.label b.width;
        Ok ()
      end

let ops s ~jobs:_ () =
  List.map
    (fun (i : inst) ->
      { label = i.label; run = (fun () -> let b = bracket i in fun () -> check s i b) })
    s.set

(* After the passes: every certificate replays to its upper bound
   through the literal Verifier, and the small DAG's bracket contains
   its exact optimum.  Returns the set's summed width. *)
let after s tally =
  List.iter
    (fun (i : inst) ->
      List.iter
        (fun (moves, upper) ->
          Stats.Tally.record tally
            ~what:(i.label ^ ": strategy does not replay to upper (literal Verifier)")
            (literal ~r:i.r i.dag moves = Ok upper))
        (Hashtbl.find_all s.certs i.label))
    s.set;
  let i = s.random in
  (match Prbp.Solver.optimal_cost (Prbp.Exact_rbp.solve (Prbp.Rbp.config ~r:i.r ()) i.dag) with
  | None -> Stats.Tally.record tally ~what:"random-5x3: exact solve did not settle" false
  | Some opt -> (
      match bracket i with
      | Ok b ->
          Stats.Tally.record tally
            ~what:(Printf.sprintf "random-5x3: optimum %d outside [%d,%d]" opt b.lower.bound b.upper)
            (b.lower.bound <= opt && opt <= b.upper)
      | Error e -> Stats.Tally.record tally ~what:("random-5x3: " ^ e) false));
  Hashtbl.fold (fun _ w acc -> acc + w) s.widths 0
