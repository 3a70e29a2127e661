(** Fixed-capacity mutable bitsets over the integers [0, n).

    Used throughout the library for node and edge sets: reachability
    frontiers, pebble-state components, partition classes.  The
    implementation packs bits into an [int array], so all operations are
    cache-friendly and allocation-free after creation. *)

type t

val create : int -> t
(** [create n] is an empty bitset with capacity [n] (members in [0, n)). *)

val capacity : t -> int
(** Number of distinct possible members (the [n] of {!create}). *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val set : t -> int -> bool -> unit
(** [set b i v] makes [mem b i = v]. *)

val cardinal : t -> int
(** Number of members; O(capacity / 63 + cardinal). *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove all members. *)

val fill : t -> unit
(** Add every member in [0, capacity); O(capacity / 63). *)

val copy : t -> t

val equal : t -> t -> bool
(** Equality of contents; both sets must have the same capacity. *)

val subset : t -> t -> bool
(** [subset a b] is [true] iff every member of [a] is a member of [b]. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] removes from [dst] everything not in [src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] removes every member of [src] from [dst]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over members in increasing order, in O(capacity / 63 +
    cardinal): zero words are skipped and only set bits are visited.
    [f] may add or remove members; a member above the one being visited
    is seen iff it is present when the scan reaches it. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] is a bitset of capacity [n] containing [xs]. *)

val choose : t -> int option
(** Smallest member, if any; O(index of its word). *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)
