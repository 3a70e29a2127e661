open Test_util
module Bitset = Prbp.Bitset

let test_empty () =
  let b = Bitset.create 100 in
  check_true "empty" (Bitset.is_empty b);
  check_int "cardinal" 0 (Bitset.cardinal b);
  check_int "capacity" 100 (Bitset.capacity b);
  check_false "mem" (Bitset.mem b 42)

let test_add_remove () =
  let b = Bitset.create 130 in
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 129;
  check_int "cardinal" 4 (Bitset.cardinal b);
  check_true "mem 63" (Bitset.mem b 63);
  check_true "mem 64" (Bitset.mem b 64);
  Bitset.remove b 63;
  check_false "removed" (Bitset.mem b 63);
  check_int "cardinal after remove" 3 (Bitset.cardinal b);
  (* removing twice is a no-op *)
  Bitset.remove b 63;
  check_int "idempotent remove" 3 (Bitset.cardinal b)

let test_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index -1 out of [0, 10)")
    (fun () -> Bitset.add b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index 10 out of [0, 10)")
    (fun () -> ignore (Bitset.mem b 10))

let test_set_ops () =
  let a = Bitset.of_list 20 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 20 [ 3; 7; 9 ] in
  let u = Bitset.copy a in
  Bitset.union_into u b;
  Alcotest.(check (list int)) "union" [ 1; 3; 5; 7; 9 ] (Bitset.to_list u);
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  Alcotest.(check (list int)) "inter" [ 3; 7 ] (Bitset.to_list i);
  let d = Bitset.copy a in
  Bitset.diff_into d b;
  Alcotest.(check (list int)) "diff" [ 1; 5 ] (Bitset.to_list d);
  check_true "subset" (Bitset.subset i a);
  check_false "not subset" (Bitset.subset b a)

let test_fill_clear () =
  let b = Bitset.create 70 in
  Bitset.fill b;
  check_int "full" 70 (Bitset.cardinal b);
  Bitset.clear b;
  check_true "cleared" (Bitset.is_empty b)

let test_copy_independent () =
  let a = Bitset.of_list 8 [ 2 ] in
  let b = Bitset.copy a in
  Bitset.add b 5;
  check_false "copy is independent" (Bitset.mem a 5);
  check_true "original kept" (Bitset.mem b 2)

let test_equal_capacity_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 9 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.equal a b))

let test_choose () =
  let b = Bitset.create 50 in
  Alcotest.(check (option int)) "empty" None (Bitset.choose b);
  Bitset.add b 17;
  Bitset.add b 3;
  Alcotest.(check (option int)) "min" (Some 3) (Bitset.choose b)

let test_iter_order () =
  let b = Bitset.of_list 200 [ 150; 7; 64; 0 ] in
  Alcotest.(check (list int)) "sorted" [ 0; 7; 64; 150 ] (Bitset.to_list b)

let prop_roundtrip =
  qcase "of_list/to_list roundtrip"
    QCheck.(list (int_bound 99))
    (fun xs ->
      let b = Prbp.Bitset.of_list 100 xs in
      Prbp.Bitset.to_list b = List.sort_uniq compare xs)

let prop_union_cardinal =
  qcase "cardinal union <= sum"
    QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (xs, ys) ->
      let a = Prbp.Bitset.of_list 64 xs and b = Prbp.Bitset.of_list 64 ys in
      let u = Prbp.Bitset.copy a in
      Prbp.Bitset.union_into u b;
      Prbp.Bitset.cardinal u
      <= Prbp.Bitset.cardinal a + Prbp.Bitset.cardinal b
      && Prbp.Bitset.subset a u
      && Prbp.Bitset.subset b u)

(* Word-at-a-time [iter], [to_list], [choose], [cardinal] and [fill]
   against a bit-by-bit reference over [mem], at capacities around the
   63-bit word boundaries. *)
let boundary_capacities = [ 0; 1; 62; 63; 64; 125; 126; 127; 200 ]

let prop_word_ops_vs_naive =
  qcase ~count:300 "word-at-a-time ops agree with a bit-by-bit reference"
    QCheck.(
      pair
        (int_bound (List.length boundary_capacities - 1))
        (list (int_bound 199)))
    (fun (ci, xs) ->
      let n = List.nth boundary_capacities ci in
      let b = Bitset.of_list n (List.filter (fun x -> x < n) xs) in
      let agrees b =
        let naive = List.filter (Bitset.mem b) (List.init n Fun.id) in
        let visited = ref [] in
        Bitset.iter (fun i -> visited := i :: !visited) b;
        List.rev !visited = naive
        && Bitset.to_list b = naive
        && Bitset.choose b = (match naive with [] -> None | i :: _ -> Some i)
        && Bitset.cardinal b = List.length naive
      in
      let full = Bitset.copy b in
      Bitset.fill full;
      agrees b && agrees full
      && Bitset.cardinal full = n
      && Bitset.subset b full)

let test_iter_mutation () =
  (* removing a member ahead of the scan hides it; adding one shows it *)
  let b = Bitset.of_list 130 [ 1; 5; 70; 100 ] in
  let seen = ref [] in
  Bitset.iter
    (fun i ->
      seen := i :: !seen;
      if i = 1 then (Bitset.remove b 5; Bitset.add b 3);
      if i = 3 then (Bitset.remove b 100; Bitset.add b 126))
    b;
  Alcotest.(check (list int)) "visited" [ 1; 3; 70; 126 ] (List.rev !seen)

let suite =
  [
    ( "bitset",
      [
        case "empty" test_empty;
        case "add/remove" test_add_remove;
        case "bounds checking" test_bounds;
        case "set operations" test_set_ops;
        case "fill/clear" test_fill_clear;
        case "copy independence" test_copy_independent;
        case "capacity mismatch" test_equal_capacity_mismatch;
        case "choose" test_choose;
        case "iteration order" test_iter_order;
        case "iteration under mutation" test_iter_mutation;
        prop_roundtrip;
        prop_union_cardinal;
        prop_word_ops_vs_naive;
      ] );
  ]
