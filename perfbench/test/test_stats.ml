(* The benchmark's own rules: quartiles as Python's
   statistics.quantiles(n=4) computes them, the tail rule and its sample
   counts, fail_frac accounting, and the shape of the result line. *)

module S = Perfbench_stats.Stats
module J = Prbp_wire.Json

let close a b = Float.abs (a -. b) < 1e-9

let check name ok =
  if not ok then begin
    Printf.eprintf "FAIL: %s\n" name;
    exit 1
  end

let quartiles () =
  (* reference values from CPython's statistics.quantiles(xs, n=4) *)
  List.iter
    (fun (xs, (a, b, c)) ->
      let q1, q2, q3 = S.quartiles xs in
      check "quartiles" (close q1 a && close q2 b && close q3 c))
    [ ([ 1.; 3. ], (0.5, 2.0, 3.5)); ([ 1.; 2.; 3.; 4.; 5. ], (1.5, 3.0, 4.5));
      (List.init 10 (fun i -> float_of_int (i + 1)), (2.75, 5.5, 8.25));
      ([ 0.5; 0.1; 0.9; 0.3 ], (0.15, 0.4, 0.8)) ];
  check "spread" (close (S.spread (List.init 10 (fun i -> float_of_int (i + 1)))) (5.5 /. 5.5));
  check "median odd" (S.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (S.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "quartiles need two samples"
    (match S.quartiles [ 1. ] with _ -> false | exception Invalid_argument _ -> true)

let tails () =
  let ramp n = List.init n (fun i -> float_of_int (i + 1)) in
  (* p99 needs ten samples beyond it: 1000 samples, not 999 *)
  check "p99 at 1000" (fst (S.tail (ramp 1000)) = S.Per_mille 990);
  check "p99 value" (snd (S.tail (ramp 1000)) = 990.);
  check "p95 at 999" (fst (S.tail (ramp 999)) = S.Per_mille 950);
  check "p99 at 10000, never p99.9" (S.tail (ramp 10_000) = (S.Per_mille 990, 9900.));
  check "p90 at 100" (fst (S.tail (ramp 100)) = S.Per_mille 900);
  check "max below 100" (S.tail (ramp 99) = (S.Max, 99.));
  check "max of a few passes" (S.tail [ 4.2; 4.0; 4.5 ] = (S.Max, 4.5));
  check "labels"
    (List.map S.tail_label [ S.Per_mille 990; S.Per_mille 999; S.Max ] = [ "p99"; "p99.9"; "max" ]);
  check "nearest rank" (S.percentile [| 10.; 20.; 30.; 40. |] 500 = 20.)

let tally () =
  let t = S.Tally.create () in
  check "nothing attempted counts as failing" (S.Tally.fail_frac t = 1.0);
  for i = 1 to 8 do
    S.Tally.record t ~what:(if i mod 4 = 0 then "refused (503)" else "bad reply") (i mod 4 <> 0 && i <> 3)
  done;
  check "attempted" (S.Tally.attempted t = 8);
  check "failed" (S.Tally.failed t = 3);
  check "fail_frac" (close (S.Tally.fail_frac t) 0.375);
  check "causes" (S.Tally.causes t = [ ("refused (503)", 2); ("bad reply", 1) ])

let result_line () =
  let m name value unit_ = { S.name; value; unit_ } in
  let line ms = J.of_string (S.result_line ~correct:true ~attempted:5 ~failed:0 ms) in
  (match line [ m "p50_ms" 1.25 "ms"; m "setup_s" 0.8127 "s" ] with
  | Ok j ->
      check "keys"
        (match j with
        | J.Obj kvs -> List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
        | _ -> false);
      check "value"
        (Option.bind (J.member "metrics" j) (J.member "p50_ms")
        |> Fun.flip Option.bind (J.member "value")
        |> Fun.flip Option.bind J.to_float = Some 1.25);
      check "correct" (Option.bind (J.member "correct" j) J.to_bool = Some true)
  | Error e -> check ("result line parses: " ^ e) false);
  (* a non-finite value is a broken measurement, never a silent null *)
  match line [ m "p50_ms" Float.nan "ms" ] with
  | Ok j -> check "nan makes the run incorrect" (Option.bind (J.member "correct" j) J.to_bool = Some false)
  | Error e -> check ("nan line parses: " ^ e) false

let () =
  quartiles ();
  tails ();
  tally ();
  result_line ();
  print_endline "perfbench stats: all checks passed"
