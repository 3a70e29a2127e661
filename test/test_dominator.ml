open Test_util
module Dag = Prbp.Dag
module Bitset = Prbp.Bitset
module Dominator = Prbp.Dominator
module Reach = Prbp.Reach

let diamond () = Prbp.Graphs.Basic.diamond ()

let bs g xs = Bitset.of_list (Dag.n_nodes g) xs

let es g xs = Bitset.of_list (Dag.n_edges g) xs

let test_reach () =
  let g = diamond () in
  Alcotest.(check (list int)) "descendants of 1" [ 1; 3 ]
    (Bitset.to_list (Reach.descendants g 1));
  Alcotest.(check (list int)) "ancestors of 3" [ 0; 1; 2; 3 ]
    (Bitset.to_list (Reach.ancestors g 3));
  let avoid = bs g [ 1 ] in
  Alcotest.(check (list int)) "avoiding 1" [ 0; 2; 3 ]
    (Bitset.to_list (Reach.from_avoiding g ~avoid [ 0 ]))

let test_is_dominator () =
  let g = diamond () in
  check_true "source dominates everything"
    (Dominator.is_dominator g (bs g [ 0 ]) (bs g [ 3 ]));
  check_true "both middles dominate sink"
    (Dominator.is_dominator g (bs g [ 1; 2 ]) (bs g [ 3 ]));
  check_false "one middle is not enough"
    (Dominator.is_dominator g (bs g [ 1 ]) (bs g [ 3 ]));
  check_true "self domination"
    (Dominator.is_dominator g (bs g [ 3 ]) (bs g [ 3 ]));
  (* a source in V0 must itself be covered *)
  check_false "uncovered source"
    (Dominator.is_dominator g (bs g [ 1 ]) (bs g [ 0 ]))

let test_min_dominator_size () =
  let g = diamond () in
  check_int "sink via source" 1 (Dominator.min_dominator_size g (bs g [ 3 ]));
  check_int "middles" 1 (Dominator.min_dominator_size g (bs g [ 1; 2 ]));
  check_int "empty" 0 (Dominator.min_dominator_size g (Bitset.create 4))

let test_min_dominator_witness () =
  let g, _ = Prbp.Graphs.Fig1.full () in
  for v = 0 to Dag.n_nodes g - 1 do
    let v0 = bs g [ v ] in
    let d = Dominator.min_dominator g v0 in
    check_true "witness dominates" (Dominator.is_dominator g d v0);
    check_int "witness is minimum"
      (Dominator.min_dominator_size g v0)
      (Bitset.cardinal d)
  done

let test_lemma54_seven_sources () =
  (* the core of the Lemma 5.4 argument: a set meeting all 7 groups
     plus the sink admits no dominator of size 6 *)
  let l = Prbp.Graphs.Lemma54.make ~group_size:5 in
  let g = l.Prbp.Graphs.Lemma54.dag in
  let v0 = Bitset.create (Dag.n_nodes g) in
  Bitset.add v0 (Prbp.Graphs.Lemma54.sink l);
  for i = 0 to 6 do
    Bitset.add v0 (List.hd (Prbp.Graphs.Lemma54.group l i))
  done;
  check_int "needs 7" 7 (Dominator.min_dominator_size g v0)

let test_terminal_set () =
  let g = diamond () in
  Alcotest.(check (list int)) "terminal of {0,1,2}" [ 1; 2 ]
    (Bitset.to_list (Dominator.terminal_set g (bs g [ 0; 1; 2 ])));
  Alcotest.(check (list int)) "terminal of all" [ 3 ]
    (Bitset.to_list (Dominator.terminal_set g (bs g [ 0; 1; 2; 3 ])))

let test_edge_terminal_set () =
  (* paper's remark after Def 6.2: both v2 and its out-neighbor v3 can
     be edge-terminal, unlike node terminal sets *)
  let g = Dag.make ~n:5 [ (0, 1); (1, 2); (2, 3); (4, 3) ] in
  let e01 = Dag.edge_id g 0 1
  and e12 = Dag.edge_id g 1 2
  and e43 = Dag.edge_id g 4 3 in
  ignore e01;
  let e0 = es g [ e12; e43 ] in
  Alcotest.(check (list int)) "both 2 and 3" [ 2; 3 ]
    (Bitset.to_list (Dominator.edge_terminal_set g e0))

let test_start_nodes_and_edge_dominator () =
  let g = diamond () in
  let all_edges = Bitset.create (Dag.n_edges g) in
  Bitset.fill all_edges;
  Alcotest.(check (list int)) "starts" [ 0; 1; 2 ]
    (Bitset.to_list (Dominator.start_nodes g all_edges));
  check_true "source edge-dominates"
    (Dominator.is_edge_dominator g (bs g [ 0 ]) all_edges);
  check_int "min edge dominator" 1
    (Dominator.min_edge_dominator_size g all_edges);
  (* edges out of the middles only *)
  let mid = es g [ Dag.edge_id g 1 3; Dag.edge_id g 2 3 ] in
  check_true "middles dominate their edges"
    (Dominator.is_edge_dominator g (bs g [ 1; 2 ]) mid);
  check_false "one middle does not"
    (Dominator.is_edge_dominator g (bs g [ 1 ]) mid)

let prop_min_dominator_vs_check =
  qcase ~count:30 "flow minimum agrees with the dominator predicate"
    QCheck.(pair (int_range 1 200) (int_range 0 8))
    (fun (seed, pick) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~layers:3 ~width:3 ~density:0.4 ()
      in
      let v = pick mod Dag.n_nodes g in
      let v0 = Bitset.of_list (Dag.n_nodes g) [ v ] in
      let size = Dominator.min_dominator_size g v0 in
      let d = Dominator.min_dominator g v0 in
      Dominator.is_dominator g d v0 && Bitset.cardinal d = size && size >= 1)

(* Reference: the whole-DAG split-node network, every node included.
   The library builds it on the ancestor cone of v0 only; both must
   give the same size and the same (source-closest) minimum cut. *)
let whole_dag_network g v0 =
  let n = Dag.n_nodes g in
  let v_in v = 2 * v and v_out v = (2 * v) + 1 in
  let src = 2 * n and dst = (2 * n) + 1 in
  let net = Prbp.Flow.create ((2 * n) + 2) in
  for v = 0 to n - 1 do
    Prbp.Flow.add_edge net (v_in v) (v_out v) 1
  done;
  Dag.iter_edges
    (fun _ u v -> Prbp.Flow.add_edge net (v_out u) (v_in v) Prbp.Flow.infinity)
    g;
  List.iter
    (fun s -> Prbp.Flow.add_edge net src (v_in s) Prbp.Flow.infinity)
    (Dag.sources g);
  Bitset.iter
    (fun v -> Prbp.Flow.add_edge net (v_out v) dst Prbp.Flow.infinity)
    v0;
  (net, src, dst)

let reference_size g v0 =
  if Bitset.is_empty v0 then 0
  else
    let net, src, dst = whole_dag_network g v0 in
    Prbp.Flow.max_flow net ~src ~dst

let reference_dominator g v0 =
  let n = Dag.n_nodes g in
  let dom = Bitset.create n in
  if not (Bitset.is_empty v0) then begin
    let net, src, dst = whole_dag_network g v0 in
    ignore (Prbp.Flow.max_flow net ~src ~dst);
    let side = Prbp.Flow.min_cut_side net ~src in
    for v = 0 to n - 1 do
      if Bitset.mem side (2 * v) && not (Bitset.mem side ((2 * v) + 1)) then
        Bitset.add dom v
    done
  end;
  dom

(* A random DAG on [n] nodes: forward edges of a random permutation, so
   sources sit anywhere; some nodes may stay isolated. *)
let random_part st n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let p = Random.State.float st 0.6 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float st 1.0 < p then edges := (perm.(i), perm.(j)) :: !edges
    done
  done;
  !edges

(* One or two random parts side by side (a disjoint union), followed by
   0-3 isolated nodes, and a random block: empty, or any subset
   (sources included), or a single node. *)
let random_instance seed =
  let st = Random.State.make [| seed |] in
  let n1 = 1 + Random.State.int st 9 in
  let n2 = if Random.State.bool st then Random.State.int st 7 else 0 in
  let isolated = Random.State.int st 4 in
  let n = n1 + n2 + isolated in
  let e1 = random_part st n1 in
  let e2 = List.map (fun (u, v) -> (u + n1, v + n1)) (random_part st n2) in
  let g = Dag.make ~n (e1 @ e2) in
  let v0 = Bitset.create n in
  (match Random.State.int st 4 with
  | 0 -> ()
  | 1 -> Bitset.add v0 (Random.State.int st n)
  | _ ->
      for v = 0 to n - 1 do
        if Random.State.int st 3 = 0 then Bitset.add v0 v
      done);
  (g, v0)

let prop_cone_network_vs_whole_dag =
  qcase ~count:500 "cone-restricted cut equals the whole-DAG reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, v0 = random_instance seed in
      let d = Dominator.min_dominator g v0 in
      Dominator.min_dominator_size g v0 = reference_size g v0
      && Bitset.equal d (reference_dominator g v0)
      && Dominator.is_dominator g d v0
      && Bitset.cardinal d = reference_size g v0)

let test_cone_edge_cases () =
  (* isolated nodes, a block made of sources, an empty block *)
  let g = Dag.make ~n:6 [ (0, 1); (1, 2) ] in
  check_int "empty block" 0 (Dominator.min_dominator_size g (bs g []));
  Alcotest.(check (list int)) "isolated node dominates itself" [ 4 ]
    (Bitset.to_list (Dominator.min_dominator g (bs g [ 4 ])));
  Alcotest.(check (list int)) "sources dominate themselves" [ 0; 3 ]
    (Bitset.to_list (Dominator.min_dominator g (bs g [ 0; 3 ])));
  Alcotest.(check (list int)) "source-closest cut" [ 0 ]
    (Bitset.to_list (Dominator.min_dominator g (bs g [ 2 ])))

let suite =
  [
    ( "dominator",
      [
        case "reachability" test_reach;
        case "is_dominator" test_is_dominator;
        case "min dominator size" test_min_dominator_size;
        case "min dominator witness" test_min_dominator_witness;
        case "Lemma 5.4 seven-source core" test_lemma54_seven_sources;
        case "terminal set" test_terminal_set;
        case "edge-terminal set (Def 6.2 remark)" test_edge_terminal_set;
        case "edge dominators" test_start_nodes_and_edge_dominator;
        prop_min_dominator_vs_check;
        case "cone network edge cases" test_cone_edge_cases;
        prop_cone_network_vs_whole_dag;
      ] );
  ]
