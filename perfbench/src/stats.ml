let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let m = ld + 1 in
  let q i =
    let j = min (ld - 1) (max 1 (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2

let percentile a pm =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (* nearest rank: the smallest sample with at least pm/1000 of the
     samples at or below it *)
  let rank = ((pm * n) + 999) / 1000 in
  a.(max 0 (min (n - 1) (rank - 1)))

type tail = Per_mille of int | Max

let tail_levels = [ 990; 950; 900 ]

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  (* samples beyond the pm-th per mille: n·(1000 − pm)/1000 ≥ 10 *)
  match List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) tail_levels with
  | Some pm -> (Per_mille pm, percentile a pm)
  | None -> (Max, a.(n - 1))

let tail_label = function
  | Max -> "max"
  | Per_mille pm when pm mod 10 = 0 -> Printf.sprintf "p%d" (pm / 10)
  | Per_mille pm -> Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

module Tally = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    causes : (string, int) Hashtbl.t;
    lock : Mutex.t;
  }

  let create () =
    { attempted = 0; failed = 0; causes = Hashtbl.create 8; lock = Mutex.create () }

  let record t ~what ok =
    Mutex.protect t.lock (fun () ->
        t.attempted <- t.attempted + 1;
        if not ok then begin
          t.failed <- t.failed + 1;
          Hashtbl.replace t.causes what
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.causes what))
        end)

  let attempted t = t.attempted
  let failed t = t.failed

  let fail_frac t =
    if t.attempted = 0 then 1.0
    else float_of_int t.failed /. float_of_int t.attempted

  let causes t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.causes []
    |> List.sort (fun (ka, a) (kb, b) ->
           if a <> b then compare b a else compare ka kb)
end

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  let module J = Prbp_wire.Json in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let value v = if Float.is_finite v then J.Float v else J.Int 0 in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct && finite));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (m.name, J.Obj [ ("value", value m.value); ("unit", J.String m.unit_) ]))
                metrics) );
       ])
