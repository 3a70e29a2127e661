(** Order statistics and failure accounting for the benchmark.

    Every number the benchmark reports goes through here, so the rules
    live in one place: medians and quartiles as Python's
    [statistics.quantiles(values, n=4)] computes them, the tail rule
    (the highest percentile with at least ten samples beyond it), and
    the attempted/failed tally behind [fail_frac]. *)

val median : float list -> float
(** @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by the "exclusive" method of Python's
    [statistics.quantiles(values, n=4)].
    @raise Invalid_argument with fewer than two samples. *)

val spread : float list -> float
(** [(q3 - q1) / q2]: the interquartile range as a share of the
    median. *)

val percentile : float array -> int -> float
(** [percentile sorted pm] is the nearest-rank percentile at [pm] per
    mille ([990] is p99) of an ascending, non-empty array. *)

type tail = Per_mille of int | Max
(** Which order statistic {!tail} reported. *)

val tail_levels : int list
(** Candidate tail percentiles in per mille, highest first: p99, p95,
    p90.  The list stops at p99 so that the level stays the same when
    one run completes more than 10 000 samples and another fewer. *)

val tail : float list -> tail * float
(** The highest percentile of {!tail_levels} that leaves at least ten
    samples beyond it (p99 needs 1000 samples), or the maximum when
    there are too few samples for any of them.
    @raise Invalid_argument on an empty list. *)

val tail_label : tail -> string
(** ["p99"], ["p99.9"], ["max"], ... *)

(** Operations attempted and failed.  An operation fails when it
    errors, is refused, or returns a result that a check rejects;
    [fail_frac] is the failed share. *)
module Tally : sig
  type t

  val create : unit -> t

  val record : t -> what:string -> bool -> unit
  (** Count one attempted operation; [false] counts it as failed and
      remembers [what] among the failure causes. *)

  val attempted : t -> int
  val failed : t -> int

  val fail_frac : t -> float
  (** [failed / attempted]; [1.0] when nothing was attempted, since a
      run that did no work cannot vouch for anything. *)

  val causes : t -> (string * int) list
  (** Failure causes with their counts, most frequent first. *)
end

type metric = { name : string; value : float; unit_ : string }

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The one-line JSON verdict:
    [{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}].
    A non-finite value makes the line report [correct:false] (its
    value prints as [0]), since JSON has no spelling for it. *)
