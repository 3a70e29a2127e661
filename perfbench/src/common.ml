(* Plumbing shared by the workloads: clocks, memory and GC readings, the
   host calibration kernel, the metric sheet, bench-side spans around
   layer calls, and the instance vocabulary. *)

module Span = Prbp.Obs.Span

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Instances *)

type game = Rbp | Prbp

let lower_game = function
  | Rbp -> Prbp.Bounds.Lower.Rbp
  | Prbp -> Prbp.Bounds.Lower.Prbp

type inst = {
  label : string;
  dag : Prbp.Dag.t;
  game : game;
  r : int;
  exact : bool;  (** small enough for the exact engine *)
  frontier : (int * int list) option;
      (** processors and capacities of a frontier sweep over this DAG *)
}

let inst ?(exact = false) ?frontier label game ~r dag =
  { label; dag; game; r; exact; frontier }

(* Random_dag seeds derived from the workload seed: the same workload
   seed always gives the same DAGs, and distinct tags never share one. *)
let derive seed tag k = Hashtbl.hash (seed, tag, k)

(* RBP needs r ≥ Δin + 1; Random_dag's in-degree cap is soft (its
   repair pass may exceed it by one), so raise r where a seed needs it. *)
let rbp_r ~at_least g = max at_least (Prbp.Dag.max_in_degree g + 1)

(* ------------------------------------------------------------------ *)
(* Host readings *)

(* VmHWM of a process (default: this one), MiB; nan when /proc has no
   answer, which the result line turns into an incorrect run. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> Float.nan
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
              ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d" (fun kb -> float_of_int kb /. 1024.)
            | _ -> scan ()
          in
          scan ())

(* A fixed CPU-and-allocation kernel, timed at the start and the end of
   every run: when it drifts, the host changed under the run. *)
let calib_s () =
  let dt, _ =
    timed (fun () ->
        let a = Array.init 150_000 (fun i -> float_of_int ((i * 7919) mod 150_001)) in
        for round = 1 to 2 do
          let b = Array.map (fun x -> Float.rem ((x *. 31.) +. float_of_int round) 150_001.) a in
          Array.sort Float.compare b;
          ignore (Sys.opaque_identity b)
        done;
        let acc = ref 0 in
        for i = 1 to 8_000_000 do
          acc := (!acc * 48271 + i) land 0xffffff
        done;
        Sys.opaque_identity !acc)
  in
  dt

(* ------------------------------------------------------------------ *)
(* The metric sheet: named values.  Units live with the metric name
   lists (Bench.e2e_names, Layers.names). *)

module Sheet = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let set t name x = Hashtbl.replace t name x
  let get t name = Option.value ~default:0. (Hashtbl.find_opt t name)
  let add t name x = set t name (get t name +. x)

  (* an unmeasured metric reads nan, which makes the run incorrect *)
  let metrics t names =
    List.map
      (fun (name, unit_) ->
        let value = Option.value ~default:Float.nan (Hashtbl.find_opt t name) in
        { Perfbench_stats.Stats.name; value; unit_ })
      names
end

(* ------------------------------------------------------------------ *)
(* Layer calls.  [layer sheet name f] runs [f] in a bench-side span
   called [name] (recorded only while tracing is on), adds its
   inclusive seconds to [name] and its minor-heap words to the layer's
   GC row. *)

let gc_rows : (string, float ref) Hashtbl.t = Hashtbl.create 32

let layer sheet name f =
  let g0 = Gc.quick_stat () in
  let dt, r = timed (fun () -> Span.with_ ~name f) in
  let g1 = Gc.quick_stat () in
  Sheet.add sheet name dt;
  let row =
    match Hashtbl.find_opt gc_rows name with
    | Some c -> c
    | None ->
        let c = ref 0. in
        Hashtbl.replace gc_rows name c;
        c
  in
  row := !row +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  r

(* Microseconds per call: a fast function repeats until a millisecond
   has passed, so the clock's resolution does not dominate; a slow one
   runs once. *)
let us_per_call f =
  let t0 = now () in
  let calls = ref 0 in
  while !calls = 0 || now () -. t0 < 1e-3 do
    ignore (Sys.opaque_identity (f ()));
    incr calls
  done;
  (now () -. t0) *. 1e6 /. float_of_int !calls

(* GC deltas of one call: (minor Mwords, major collections). *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* ------------------------------------------------------------------ *)
(* Span post-processing: self time per span name — a span's duration
   minus the part of it its children cover. *)

let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.parent >= 0 then
        let k = (s.Span.tid, s.Span.parent) in
        Hashtbl.replace child k
          ((s.Span.t1 -. s.Span.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child k)))
    spans;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      let dur = s.Span.t1 -. s.Span.t0 in
      let covered =
        Option.value ~default:0. (Hashtbl.find_opt child (s.Span.tid, s.Span.id))
      in
      let calls, incl, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt rows s.Span.name)
      in
      Hashtbl.replace rows s.Span.name
        (calls + 1, incl +. dur, self +. Float.max 0. (dur -. covered)))
    spans;
  Hashtbl.fold (fun name (c, i, s) acc -> (name, c, i, s) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let print_self_times ppf spans =
  Format.fprintf ppf "span self times (%d spans):@." (List.length spans);
  Format.fprintf ppf "  %-34s %7s %10s %10s %10s@." "span" "calls" "incl_s"
    "self_s" "minor_Mw";
  List.iter
    (fun (name, calls, incl, self) ->
      let mw =
        match Hashtbl.find_opt gc_rows name with
        | Some c -> Printf.sprintf "%10.2f" (!c /. 1e6)
        | None -> Printf.sprintf "%10s" "-"
      in
      Format.fprintf ppf "  %-34s %7d %10.4f %10.4f %s@." name calls incl self mw)
    (self_times spans)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Passes.  A pass runs a workload's fixed set of operations once; an
   operation's [run] does the measured work and hands back the check
   to run afterwards, off the clock.  A failed check counts against
   the operation, never skips it. *)

type op = { label : string; run : unit -> unit -> (unit, string) result }

type pass = { wall : float;  (** measured seconds, checks excluded *) per_op : (string * float) list }

let run_pass tally ops =
  Gc.compact ();
  let per_op =
    List.map
      (fun op ->
        let dt, check =
          match timed op.run with
          | r -> r
          | exception e -> (0., fun () -> Error (Printexc.to_string e))
        in
        (match check () with
        | Ok () -> Perfbench_stats.Stats.Tally.record tally ~what:op.label true
        | Error e -> Perfbench_stats.Stats.Tally.record tally ~what:(op.label ^ ": " ^ e) false
        | exception e ->
            Perfbench_stats.Stats.Tally.record tally
              ~what:(op.label ^ ": " ^ Printexc.to_string e) false);
        (op.label, dt))
      ops
  in
  { wall = List.fold_left (fun a (_, t) -> a +. t) 0. per_op; per_op }

(* Passes while at least half of the next one fits in [seconds]; at
   least one. *)
let passes ~seconds tally make_ops =
  let t0 = now () in
  let rec go acc =
    let p = run_pass tally (make_ops ()) in
    let acc = p :: acc in
    if now () -. t0 +. (p.wall /. 2.) <= seconds then go acc else List.rev acc
  in
  go []
