let is_dominator g d v0 =
  let reached = Reach.from_avoiding g ~avoid:d (Dag.sources g) in
  Bitset.inter_into reached v0;
  Bitset.is_empty reached

(* Minimum vertex cut between the sources and v0 by node splitting:
   vertex v becomes arc v_in -> v_out of capacity 1; original edges get
   infinite capacity; a super-source feeds every DAG source's _in side
   and every v0 member's _out side drains to a super-sink.  Routing the
   super-sink from v_out (not v_in) lets the cut pick v itself, matching
   the path-includes-endpoints convention of Definition 5.1.

   Only the ancestor cone of v0 enters the network, under compact ids
   (cone.(i) is the node with id i): a node outside it lies on no
   source-to-v0 path, so the flow value is that of the whole-DAG
   network, and the source-closest minimum cut — unique — is too. *)
let build_cut_network g v0 =
  let cone_set = Reach.to_ g (Bitset.to_list v0) in
  let k = Bitset.cardinal cone_set in
  let cone = Array.make k 0 and id = Array.make (Dag.n_nodes g) (-1) in
  let next = ref 0 in
  Bitset.iter
    (fun v ->
      cone.(!next) <- v;
      id.(v) <- !next;
      incr next)
    cone_set;
  let v_in v = 2 * id.(v) and v_out v = (2 * id.(v)) + 1 in
  let src = 2 * k and dst = (2 * k) + 1 in
  let net = Flow.create ((2 * k) + 2) in
  Array.iter
    (fun v ->
      Flow.add_edge net (v_in v) (v_out v) 1;
      (* every predecessor of a cone node is in the cone *)
      Dag.iter_pred (fun u -> Flow.add_edge net (v_out u) (v_in v) Flow.infinity) g v;
      if Dag.is_source g v then Flow.add_edge net src (v_in v) Flow.infinity)
    cone;
  Bitset.iter (fun v -> Flow.add_edge net (v_out v) dst Flow.infinity) v0;
  (net, src, dst, cone)

let min_dominator_size g v0 =
  if Bitset.is_empty v0 then 0
  else
    let net, src, dst, _ = build_cut_network g v0 in
    Flow.max_flow net ~src ~dst

let min_dominator g v0 =
  let dom = Bitset.create (Dag.n_nodes g) in
  if Bitset.is_empty v0 then dom
  else begin
    let net, src, dst, cone = build_cut_network g v0 in
    let (_ : int) = Flow.max_flow net ~src ~dst in
    let side = Flow.min_cut_side net ~src in
    (* v is in the cut iff v_in is on the source side but v_out is not *)
    Array.iteri
      (fun i v ->
        if Bitset.mem side (2 * i) && not (Bitset.mem side ((2 * i) + 1)) then
          Bitset.add dom v)
      cone;
    dom
  end

let terminal_set g v0 =
  let t = Bitset.create (Dag.n_nodes g) in
  Bitset.iter
    (fun v ->
      let has_succ_inside = Dag.fold_succ (fun w acc -> acc || Bitset.mem v0 w) g v false in
      if not has_succ_inside then Bitset.add t v)
    v0;
  t

let start_nodes g e0 =
  let s = Bitset.create (Dag.n_nodes g) in
  Bitset.iter (fun e -> Bitset.add s (Dag.edge_src g e)) e0;
  s

let is_edge_dominator g d e0 = is_dominator g d (start_nodes g e0)

let min_edge_dominator_size g e0 = min_dominator_size g (start_nodes g e0)

let edge_terminal_set g e0 =
  let n = Dag.n_nodes g in
  let has_in = Bitset.create n and has_out = Bitset.create n in
  Bitset.iter
    (fun e ->
      Bitset.add has_out (Dag.edge_src g e);
      Bitset.add has_in (Dag.edge_dst g e))
    e0;
  Bitset.diff_into has_in has_out;
  has_in
