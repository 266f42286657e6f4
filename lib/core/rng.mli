(** Deterministic pseudo-random numbers (SplitMix64).

    Both the simulated-annealing solver and the random instance generator
    need reproducible randomness that does not depend on the OCaml runtime's
    [Random] implementation details, so experiment tables are bit-stable
    across OCaml versions.  SplitMix64 is small, fast and well distributed
    (Steele, Lea & Flood, OOPSLA 2014). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val copy : t -> t
(** Independent copy: the original and the copy produce the same stream. *)

val split : t -> int -> t array
(** [split t n] advances [t] by [n] draws and returns [n] child
    generators with distinct, decorrelated streams (each child is seeded
    from one well-mixed output of [t]).  Reproducible: the same parent
    state always yields the same family.  Unlike {!copy}, the children
    do not replay the parent's stream — use one child per domain for
    parallel work. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> float -> bool
(** [bool t prob] is [true] with probability [prob]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] draws [k] distinct integers from [\[0, n)]
    (all of them if [k >= n]), in random order. *)

val sample_distinct_into : t -> int -> int array -> int
(** [sample_distinct_into t k perm] is {!sample_distinct}[ t k n] with
    [n = Array.length perm], without allocating: it overwrites [perm],
    leaves the same draws in the same order in [perm.(0 .. m-1)] and
    returns [m = min k n]. *)
