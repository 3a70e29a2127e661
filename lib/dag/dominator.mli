(** Dominators and terminal sets (Definitions 5.1, 5.2, 6.1, 6.2 of the
    paper).

    Node sets are {!Bitset.t} of capacity [n_nodes]; edge sets are
    {!Bitset.t} of capacity [n_edges] (membership by edge id). *)

val is_dominator : Dag.t -> Bitset.t -> Bitset.t -> bool
(** [is_dominator g d v0]: every path from a source node to a node of
    [v0] contains a node of [d] (Definition 5.1).  Paths include their
    endpoints, so [v0 ⊆ d] always dominates. *)

val min_dominator_size : Dag.t -> Bitset.t -> int
(** Size of a minimum dominator for [v0]: the minimum vertex cut
    separating the sources from [v0], computed by max-flow on the
    node-split network of the ancestors of [v0] (no other node lies on
    a source-to-[v0] path).  Runs in polynomial time (this is not the
    NP-hard minimum-partition problem, just one dominator). *)

val min_dominator : Dag.t -> Bitset.t -> Bitset.t
(** A concrete minimum dominator realizing {!min_dominator_size}. *)

val terminal_set : Dag.t -> Bitset.t -> Bitset.t
(** Nodes of [v0] with no out-neighbor inside [v0] (Definition 5.2). *)

val start_nodes : Dag.t -> Bitset.t -> Bitset.t
(** [start_nodes g e0] = \{u | ∃v. (u,v) ∈ e0\} — the sources of the
    edges in the set (the paper's [Start(E₀)]). *)

val is_edge_dominator : Dag.t -> Bitset.t -> Bitset.t -> bool
(** [is_edge_dominator g d e0]: every source-originating path containing
    an edge of [e0] meets [d] (Definition 6.1); equivalently, [d]
    dominates [start_nodes g e0]. *)

val min_edge_dominator_size : Dag.t -> Bitset.t -> int

val edge_terminal_set : Dag.t -> Bitset.t -> Bitset.t
(** Nodes with at least one incoming edge in [e0] but no outgoing edge
    in [e0] (Definition 6.2). *)
