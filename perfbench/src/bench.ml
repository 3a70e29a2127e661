(* The repo benchmark: one workload per invocation, measured for a fixed
   number of seconds, every result checked, one JSON verdict as the
   last line of stdout.

     bench.exe --workload exact|bracket|serve --seed N --seconds S
               --trace 0|1 --prbpd PATH [--out DIR] [--commit C]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that attributes the work to the layers.
   perfbench/run.py builds this executable and prbpd from source and
   is the documented entry point; see perfbench/README.md. *)

open Common
module Stats = Perfbench_stats.Stats

let e2e_names =
  [ ("setup_s", "s"); ("p50_ms", "ms"); ("tail_ms", "ms"); ("ops_per_s", "1/s");
    ("width", "count"); ("peak_rss_mb", "MiB") ]

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  prbpd : string;
  out : string;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload exact|bracket|serve --seed N --seconds S --trace 0|1 \
     --prbpd PATH [--out DIR] [--commit C]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let ctx =
    {
      workload = get "workload";
      seed = int "seed";
      seconds = float_of_int (int "seconds");
      trace =
        (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
      prbpd = get "prbpd";
      out = Option.value ~default:".bench_out" (List.assoc_opt "out" kv);
      commit = Option.value ~default:"unknown" (List.assoc_opt "commit" kv);
    }
  in
  if ctx.seconds < 1. || not (List.mem ctx.workload [ "exact"; "bracket"; "serve" ]) then usage ();
  ctx

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pr fmt = Printf.printf (fmt ^^ "\n%!")

let print_tally tally =
  let a = Stats.Tally.attempted tally and f = Stats.Tally.failed tally in
  pr "fail_frac %.6f (%d failed of %d attempted)" (Stats.Tally.fail_frac tally) f a;
  List.iter (fun (what, n) -> pr "  failure x%d: %s" n what) (Stats.Tally.causes tally)

let print_sheet title sheet names =
  pr "%s:" title;
  List.iter
    (fun (name, unit_) -> pr "  %-36s %16.6g %s" name (Sheet.get sheet name) unit_)
    names

let stamp ctx ~calib0 =
  pr "stamp %s"
    (Prbp.Wire.Json.to_string
       (Prbp.Wire.Json.Obj
          [ ("workload", String ctx.workload); ("seed", Int ctx.seed);
            ("seconds", Float ctx.seconds); ("trace", Bool ctx.trace);
            ("nproc", Int nproc); ("ocaml", String Sys.ocaml_version);
            ("profile", String "release"); ("commit", String ctx.commit);
            ("host.calib_s.start", Float calib0) ]))

let finish ctx ~calib0 ~sheet ~layers tally =
  let calib1 = calib_s () in
  pr "host.calib_s start %.6f end %.6f (drift %+.1f%%)" calib0 calib1
    (100. *. (calib1 -. calib0) /. calib0);
  Sheet.set layers "host.calib_s" ((calib0 +. calib1) /. 2.);
  print_tally tally;
  let metrics =
    if ctx.trace then Sheet.metrics layers Layers.names else Sheet.metrics sheet e2e_names
  in
  if ctx.trace then print_sheet "per-layer metrics" layers Layers.names
  else print_sheet "end-to-end metrics" sheet e2e_names;
  let failed = Stats.Tally.failed tally in
  print_endline
    (Stats.result_line ~correct:(failed = 0) ~attempted:(Stats.Tally.attempted tally) ~failed
       metrics)

(* Set-ups per run; setup_s is their median. *)
let setup_runs = 5

let setup_times n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    Gc.compact ();
    let dt, st = timed f in
    times := dt :: !times;
    last := Some st
  done;
  pr "set-ups (s): %s" (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  (Stats.median !times, Option.get !last)

let trace_out ctx =
  (try Unix.mkdir ctx.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat ctx.out (Printf.sprintf "trace-%s-seed%d.json" ctx.workload ctx.seed) in
  let spans = Span.spans () in
  write_file path (Span.to_chrome ());
  Format.printf "%a%!" print_self_times spans;
  pr "trace written to %s" path

let enable_tracing on =
  Span.set_enabled on;
  Prbp.Obs.Metrics.set_enabled on

(* ------------------------------------------------------------------ *)
(* exact and bracket: passes over a fixed set *)

module type PASS = sig
  type state

  val name : string
  val setup : seed:int -> state
  val instances : state -> inst list
  val ops : state -> jobs:int -> unit -> op list
  val after : state -> Stats.Tally.t -> int
end

let pass_workload (module W : PASS) ctx =
  let calib0 = calib_s () in
  stamp ctx ~calib0;
  let tally = Stats.Tally.create () and sheet = Sheet.create () and layers = Sheet.create () in
  let jobs = nproc in
  let setup_s, st = setup_times setup_runs (fun () -> W.setup ~seed:ctx.seed) in
  Sheet.set sheet "setup_s" setup_s;
  let make_ops = W.ops st ~jobs in
  if not ctx.trace then begin
    let ps = passes ~seconds:ctx.seconds tally make_ops in
    let walls = List.map (fun p -> p.wall) ps in
    (* A run holds a handful of passes, too few for any percentile to
       have ten samples beyond it, so every figure is a median over the
       passes: tail_ms is the slowest operation of the set at its
       median, the longest a caller waits for one result. *)
    let op_medians =
      List.map
        (fun (label, _) -> (label, Stats.median (List.map (fun p -> List.assoc label p.per_op) ps)))
        (List.hd ps).per_op
    in
    let pass_p50 = Stats.median walls in
    let slowest = List.fold_left (fun a (_, t) -> Float.max a t) 0. op_medians in
    Sheet.set sheet "p50_ms" (1e3 *. pass_p50);
    Sheet.set sheet "tail_ms" (1e3 *. slowest);
    Sheet.set sheet "ops_per_s" (float_of_int (List.length op_medians) /. pass_p50);
    (* peak memory of the passes, before the checks add their own *)
    Sheet.set sheet "peak_rss_mb" (peak_rss_mb ());
    Sheet.set sheet "width" (float_of_int (W.after st tally));
    pr "%s: %d passes, pass p50 %.4f s, max %.4f s, slowest operation p50 %.4f s, setup %.4f s"
      W.name (List.length ps) pass_p50
      (List.fold_left Float.max 0. walls)
      slowest setup_s;
    pr "per-operation medians (s):";
    List.iter (fun (label, t) -> pr "  %-28s %.4f" label t) op_medians
  end
  else begin
    (* untraced and traced passes, alternating (one pair when a pass is
       long); the traced ones also give the per-pass GC figures.  The
       sweep repeats every check [after] makes, so it replaces it. *)
    let untraced = ref [] and traced = ref [] and gc = ref [] in
    let pair () =
      untraced := (run_pass tally (make_ops ())).wall :: !untraced;
      enable_tracing true;
      let p, mw, major = with_gc (fun () -> run_pass tally (make_ops ())) in
      enable_tracing false;
      traced := p.wall :: !traced;
      gc := (mw, major) :: !gc
    in
    pair ();
    if List.hd !untraced < 5. then pair ();
    let u = Stats.median !untraced and t = Stats.median !traced in
    Sheet.set layers "obs.trace_overhead_pct" (100. *. (t -. u) /. u);
    Sheet.set layers "gc.minor_mwords" (Stats.median (List.map fst !gc));
    Sheet.set layers "gc.major_collections"
      (Stats.median (List.map (fun (_, m) -> float_of_int m) !gc));
    enable_tracing true;
    Layers.sweep layers tally ~jobs (W.instances st);
    Layers.serve_round_trip layers tally ~prbpd:ctx.prbpd (W.instances st);
    enable_tracing false;
    pr "%s traced run: pass %.4f s untraced, %.4f s traced" W.name u t;
    trace_out ctx
  end;
  finish ctx ~calib0 ~sheet ~layers tally

(* ------------------------------------------------------------------ *)
(* serve: a closed loop against the daemon *)

let serve_workload ctx =
  let module S = W_serve in
  let calib0 = calib_s () in
  stamp ctx ~calib0;
  let tally = Stats.Tally.create () and sheet = Sheet.create () and layers = Sheet.create () in
  (* set-up = daemon start until /healthz answers, plus the warm-up; it
     is repeated, and each daemon but the last is stopped before the
     next one starts *)
  let setups =
    List.init setup_runs (fun k ->
        let dt, st = timed (fun () -> S.setup ~prbpd:ctx.prbpd ~seed:ctx.seed tally) in
        (match st with
        | Ok (s : S.state) -> if k < setup_runs - 1 then Client.stop s.S.daemon
        | Error e -> Stats.Tally.record tally ~what:("serve set-up: " ^ e) false);
        (dt, st))
  in
  match List.nth setups (setup_runs - 1) with
  | _, Error _ -> finish ctx ~calib0 ~sheet ~layers tally
  | _, Ok s ->
      Sheet.set sheet "setup_s" (Stats.median (List.map fst setups));
      let served = Layers.served () in
      let loads =
        if not ctx.trace then [ S.drive s ~seconds:ctx.seconds ~served tally ]
        else begin
          let u = S.drive s ~seconds:(ctx.seconds /. 2.) ~served tally in
          enable_tracing true;
          let t = S.drive s ~seconds:(ctx.seconds /. 2.) ~served tally in
          let p50 (l : S.load) = if l.S.lat = [] then Float.nan else Stats.median l.S.lat in
          Sheet.set layers "obs.trace_overhead_pct" (100. *. (p50 t -. p50 u) /. p50 u);
          [ u; t ]
        end
      in
      let lat = List.concat_map (fun (l : S.load) -> l.S.lat) loads in
      let window = List.fold_left (fun a (l : S.load) -> a +. l.S.window) 0. loads in
      let rss = peak_rss_mb ~pid:s.S.daemon.Client.pid () in
      let status = Result.to_option (Client.status ~port:s.S.daemon.Client.port) in
      Client.stop s.S.daemon;
      if lat = [] then Stats.Tally.record tally ~what:"serve: no request completed" false
      else begin
        let tail, tail_v = Stats.tail lat in
        let n = List.length lat in
        Sheet.set sheet "p50_ms" (1e3 *. Stats.median lat);
        Sheet.set sheet "tail_ms" (1e3 *. tail_v);
        Sheet.set sheet "ops_per_s" (float_of_int n /. window);
        Sheet.set sheet "width" (float_of_int (S.width s (List.hd loads)));
        Sheet.set sheet "peak_rss_mb" rss;
        pr "serve: %d requests completed in %.2f s by one client; p50 %.3f ms, %s %.3f ms (n=%d)%s"
          n window (1e3 *. Stats.median lat) (Stats.tail_label tail) (1e3 *. tail_v) n
          (if n < 1000 then " — p99 needs 1000 samples" else "");
        let routes = Hashtbl.create 4 in
        List.iter
          (fun (l : S.load) ->
            List.iter
              (fun (route, sent, failed) ->
                let a, f = Option.value ~default:(0, 0) (Hashtbl.find_opt routes route) in
                Hashtbl.replace routes route (a + sent, f + failed))
              l.S.per_route)
          loads;
        List.iter
          (fun (route, (sent, failed)) ->
            pr "  %-14s sent %6d  succeeded %6d  failed %d" route sent (sent - failed) failed)
          (List.sort compare (List.of_seq (Hashtbl.to_seq routes)))
      end;
      if ctx.trace then begin
        Layers.serve_metrics layers served status;
        Layers.sweep layers tally ~jobs:nproc (S.instances s);
        enable_tracing false;
        (* the load generator's own GC, per thousand requests *)
        let per = 1000. /. float_of_int (max 1 (List.length lat)) in
        Sheet.set layers "gc.minor_mwords"
          (per *. (List.fold_left (fun a (l : S.load) -> a +. l.S.gc_mwords) 0. loads));
        Sheet.set layers "gc.major_collections"
          (per *. float_of_int (List.fold_left (fun a (l : S.load) -> a + l.S.gc_major) 0 loads));
        trace_out ctx
      end;
      finish ctx ~calib0 ~sheet ~layers tally

let () =
  let ctx = parse_args () in
  (* a client that disconnects mid-exchange must not kill the benchmark;
     a terminated benchmark still stops its daemon (at_exit) *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  match ctx.workload with
  | "exact" -> pass_workload (module W_exact) ctx
  | "bracket" -> pass_workload (module W_bracket) ctx
  | _ -> serve_workload ctx
