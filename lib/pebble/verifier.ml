module Dag = Prbp_dag.Dag
module Nodes = Set.Make (Int)

module Edges = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    let k = Int.compare a c in
    if k <> 0 then k else Int.compare b d
end)

module R = struct
  type state = { red : Nodes.t; blue : Nodes.t; computed : Nodes.t; io : int }

  let io st = st.io

  let initial g =
    {
      red = Nodes.empty;
      blue = Nodes.of_list (Dag.sources g);
      computed = Nodes.empty;
      io = 0;
    }

  let step ~r g st (m : Move.R.t) =
    match m with
    | Move.R.Load v ->
        (* "place a red pebble on any node v that has a blue pebble" *)
        if not (Nodes.mem v st.blue) then Error "load: no blue pebble"
        else if Nodes.mem v st.red then
          (* legal but a pure waste: state unchanged, cost paid *)
          Ok { st with io = st.io + 1 }
        else if Nodes.cardinal st.red >= r then Error "load: capacity"
        else Ok { st with red = Nodes.add v st.red; io = st.io + 1 }
    | Move.R.Save v ->
        (* "place a blue pebble on any node v that has a red pebble" *)
        if not (Nodes.mem v st.red) then Error "save: no red pebble"
        else Ok { st with blue = Nodes.add v st.blue; io = st.io + 1 }
    | Move.R.Compute v ->
        (* "if all the inputs of a non-source node v have a red pebble,
           then also place a red pebble on v" — once per node *)
        if Dag.is_source g v then Error "compute: source"
        else if Nodes.mem v st.computed then Error "compute: one-shot"
        else if
          not (List.for_all (fun u -> Nodes.mem u st.red) (Dag.preds g v))
        then Error "compute: inputs not red"
        else if Nodes.mem v st.red then
          Ok { st with computed = Nodes.add v st.computed }
        else if Nodes.cardinal st.red >= r then Error "compute: capacity"
        else
          Ok
            {
              st with
              red = Nodes.add v st.red;
              computed = Nodes.add v st.computed;
            }
    | Move.R.Delete v ->
        (* "remove a red pebble from any node" *)
        if not (Nodes.mem v st.red) then Error "delete: no red pebble"
        else Ok { st with red = Nodes.remove v st.red }
    | Move.R.Slide _ -> Error "slide: not part of the base game"

  let is_terminal g st =
    List.for_all (fun v -> Nodes.mem v st.blue) (Dag.sinks g)

  let run ~r g moves =
    List.fold_left
      (fun acc m -> Result.bind acc (fun st -> step ~r g st m))
      (Ok (initial g))
      moves

  let check ~r g moves =
    match run ~r g moves with
    | Error e -> Error e
    | Ok st ->
        if is_terminal g st then Ok st.io
        else Error "incomplete pebbling: some sink has no blue pebble"
end

module P = struct
  (* A node carries one of four pebble kinds.  The state stores only the
     node's memberships, from which its kind follows:
     blue only = blue and not red; blue + light red = blue and red;
     dark red only = red and not blue; none = neither.  A red pebble is
     light exactly when the node also holds a blue one. *)
  type pebble = No_pebble | Blue_only | Blue_and_light | Dark_only

  type state = { red : Nodes.t; blue : Nodes.t; marked : Edges.t; io : int }

  let io st = st.io

  let pebble_of st v =
    match (Nodes.mem v st.blue, Nodes.mem v st.red) with
    | true, false -> Blue_only
    | true, true -> Blue_and_light
    | false, true -> Dark_only
    | false, false -> No_pebble

  let red_count st = Nodes.cardinal st.red

  let initial g =
    {
      red = Nodes.empty;
      blue = Nodes.of_list (Dag.sources g);
      marked = Edges.empty;
      io = 0;
    }

  let fully_computed g st u =
    List.for_all (fun p -> Edges.mem (p, u) st.marked) (Dag.preds g u)

  let all_out_marked g st v =
    List.for_all (fun w -> Edges.mem (v, w) st.marked) (Dag.succs g v)

  let step ~r g st (m : Move.P.t) =
    match m with
    | Move.P.Load v -> (
        (* "place a light red pebble on any node v that has a blue
           pebble" *)
        match pebble_of st v with
        | Blue_only ->
            if red_count st >= r then Error "load: capacity"
            else Ok { st with red = Nodes.add v st.red; io = st.io + 1 }
        | Blue_and_light -> Ok { st with io = st.io + 1 }
        | No_pebble | Dark_only -> Error "load: no blue pebble")
    | Move.P.Save v -> (
        (* "replace a dark red pebble ... by a blue and a light red" *)
        match pebble_of st v with
        | Dark_only -> Ok { st with blue = Nodes.add v st.blue; io = st.io + 1 }
        | _ -> Error "save: no dark red pebble")
    | Move.P.Compute (u, v) ->
        (* conditions (i)-(iii) of the partial compute rule, plus the
           one-shot restriction on edges *)
        if not (Dag.has_edge g u v) then Error "compute: no such edge"
        else if Edges.mem (u, v) st.marked then Error "compute: edge marked"
        else if not (fully_computed g st u) then
          Error "compute: input not fully computed"
        else if
          not
            (match pebble_of st u with
            | Blue_and_light | Dark_only -> true
            | _ -> false)
        then Error "compute: input not red"
        else begin
          match pebble_of st v with
          | Blue_only -> Error "compute: target has only a blue pebble"
          | No_pebble when red_count st >= r -> Error "compute: capacity"
          | No_pebble | Blue_and_light | Dark_only ->
              (* v's value changes: it becomes dark red, and any blue
                 copy of the old value is gone *)
              Ok
                {
                  st with
                  red = Nodes.add v st.red;
                  blue = Nodes.remove v st.blue;
                  marked = Edges.add (u, v) st.marked;
                }
        end
    | Move.P.Delete v -> (
        (* light red always removable; dark red only once every output
           edge is marked *)
        match pebble_of st v with
        | Blue_and_light -> Ok { st with red = Nodes.remove v st.red }
        | Dark_only ->
            if all_out_marked g st v then
              Ok { st with red = Nodes.remove v st.red }
            else Error "delete: dark red with unmarked out-edges"
        | _ -> Error "delete: no red pebble")
    | Move.P.Clear _ -> Error "clear: not part of the base game"

  let is_terminal g st =
    Edges.cardinal st.marked = Dag.n_edges g
    && List.for_all
         (fun v ->
           match pebble_of st v with
           | Blue_only | Blue_and_light -> true
           | _ -> false)
         (Dag.sinks g)

  let run ~r g moves =
    List.fold_left
      (fun acc m -> Result.bind acc (fun st -> step ~r g st m))
      (Ok (initial g))
      moves

  let check ~r g moves =
    match run ~r g moves with
    | Error e -> Error e
    | Ok st ->
        if is_terminal g st then Ok st.io
        else Error "incomplete pebbling: unmarked edges or an unsaved sink"
end

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let agree_rbp ~r g moves =
  let eng = Rbp.start (Rbp.config ~r ()) g in
  let rec go i (st : R.state) = function
    | [] ->
        let final_red = Prbp_dag.Bitset.to_list (Rbp.red_set eng) in
        let final_blue = Prbp_dag.Bitset.to_list (Rbp.blue_set eng) in
        if Rbp.io_cost eng <> st.io then errf "cost mismatch at end"
        else if final_red <> Nodes.elements st.red then errf "red set mismatch"
        else if final_blue <> Nodes.elements st.blue then
          errf "blue set mismatch"
        else if
          Prbp_dag.Bitset.to_list (Rbp.computed_set eng)
          <> Nodes.elements st.computed
        then errf "computed set mismatch"
        else if Rbp.is_terminal eng <> R.is_terminal g st then
          errf "terminality mismatch"
        else Ok ()
    | m :: rest -> (
        match (Rbp.apply eng m, R.step ~r g st m) with
        | Ok (), Ok st' -> go (i + 1) st' rest
        | Error _, Error _ -> Ok () (* both reject at the same index *)
        | Ok (), Error e -> errf "move #%d: engine accepts, verifier: %s" i e
        | Error e, Ok _ -> errf "move #%d: verifier accepts, engine: %s" i e)
  in
  go 0 (R.initial g) moves

let agree_prbp ~r g moves =
  let eng = Prbp.start (Prbp.config ~r ()) g in
  let pebble_eq (p : Prbp.Pebble.t) (q : P.pebble) =
    match (p, q) with
    | Prbp.Pebble.None_, P.No_pebble
    | Prbp.Pebble.Blue, P.Blue_only
    | Prbp.Pebble.Blue_light, P.Blue_and_light
    | Prbp.Pebble.Dark, P.Dark_only ->
        true
    | _ -> false
  in
  let rec go i (st : P.state) = function
    | [] ->
        let marked = Prbp.marked_set eng in
        if Prbp.io_cost eng <> st.io then errf "cost mismatch"
        else if
          not
            (List.for_all
               (fun v -> pebble_eq (Prbp.pebble eng v) (P.pebble_of st v))
               (List.init (Dag.n_nodes g) Fun.id))
        then errf "pebble state mismatch"
        else if
          Edges.cardinal st.marked <> Prbp_dag.Bitset.cardinal marked
          || not
               (Edges.for_all
                  (fun (u, v) -> Prbp_dag.Bitset.mem marked (Dag.edge_id g u v))
                  st.marked)
        then errf "marked set mismatch"
        else if Prbp.is_terminal eng <> P.is_terminal g st then
          errf "terminality mismatch"
        else Ok ()
    | m :: rest -> (
        match (Prbp.apply eng m, P.step ~r g st m) with
        | Ok (), Ok st' -> go (i + 1) st' rest
        | Error _, Error _ -> Ok ()
        | Ok (), Error e -> errf "move #%d: engine accepts, verifier: %s" i e
        | Error e, Ok _ -> errf "move #%d: verifier accepts, engine: %s" i e)
  in
  go 0 (P.initial g) moves
