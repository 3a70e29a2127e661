(** Independent re-implementation of the game rules, for differential
    testing.

    {!Rbp} and {!Prbp} are optimized mutable engines (bitsets, counter
    caches).  This module re-implements the Section-1 and Section-3
    transition rules a second time in the most literal way possible —
    persistent sets ([Set.Make] over nodes and edges), no caches, every
    precondition spelled out next to the sentence of the paper it comes
    from.  A move costs O(r + deg · log m) for a node of degree deg in
    a DAG of m edges: capacity checks count the red set, which never
    exceeds [r].  The test-suite drives both implementations with the
    same (legal and illegal) move sequences and requires identical
    verdicts, states and costs, so a bug would have to be introduced
    twice, in two different shapes, to go unnoticed. *)

(** Literal RBP checker. *)
module R : sig
  type state
  (** Persistent sets of red, blue and computed nodes, plus the I/O
      cost so far. *)

  val io : state -> int
  (** I/O cost paid so far. *)

  val initial : Prbp_dag.Dag.t -> state

  val step :
    r:int -> Prbp_dag.Dag.t -> state -> Move.R.t -> (state, string) result
  (** One-shot, no sliding, deletion allowed — the paper's base game. *)

  val is_terminal : Prbp_dag.Dag.t -> state -> bool

  val run :
    r:int -> Prbp_dag.Dag.t -> Move.R.t list -> (state, string) result

  val check : r:int -> Prbp_dag.Dag.t -> Move.R.t list -> (int, string) result
  (** Replay through the literal rules and additionally require the
      final state to be {!is_terminal}; [Ok cost] is the certified I/O
      cost of a {e complete} pebbling.  This is the independent
      certificate checker used by the bounds subsystem: a strategy cost
      is believed only after this (or the engine's own [check]) accepts
      the full move list. *)
end

(** Literal PRBP checker. *)
module P : sig
  type state
  (** Persistent sets of red nodes, blue nodes and marked edges, plus
      the I/O cost so far.  A node's pebble kind follows from its
      memberships: blue only, blue + light red, dark red only, or
      none. *)

  val io : state -> int
  (** I/O cost paid so far. *)

  val initial : Prbp_dag.Dag.t -> state

  val step :
    r:int -> Prbp_dag.Dag.t -> state -> Move.P.t -> (state, string) result

  val is_terminal : Prbp_dag.Dag.t -> state -> bool

  val run :
    r:int -> Prbp_dag.Dag.t -> Move.P.t list -> (state, string) result

  val check : r:int -> Prbp_dag.Dag.t -> Move.P.t list -> (int, string) result
  (** Like {!R.check}: replay plus terminality (every edge marked,
      every sink blue), returning the certified I/O cost. *)
end

val agree_rbp :
  r:int -> Prbp_dag.Dag.t -> Move.R.t list -> (unit, string) result
(** Replays the moves through both the engine and this verifier; [Ok]
    iff both accept with equal costs and equal final red/blue/computed
    sets, or both reject at the same move index. *)

val agree_prbp :
  r:int -> Prbp_dag.Dag.t -> Move.P.t list -> (unit, string) result
