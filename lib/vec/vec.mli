(** Flat Float64 vectors and matrices over [Bigarray] (C layout).

    The hot dense structures of the solver stack — simplex work vectors,
    the dense basis inverse, and the cost-model matrices — live in
    bigarrays rather than [float array]/[float array array]: the payload
    is a single unboxed malloc'd block outside the OCaml heap, so the GC
    never scans or copies it, rows of a matrix are contiguous (C layout),
    and buffers can be carved out of a pre-allocated arena
    ({!Simplex.Workspace}) for O(1) steady-state allocation in batch
    solving.

    Element access uses the standard index syntax: [v.{i}] and
    [m.{i, j}].  Unlike [Array.make], {!create} and {!mat_create}
    zero-fill (bigarray memory is otherwise uninitialized).

    Structural polymorphic equality ([=]) on bigarrays compares kind,
    layout, dimensions and contents, so value-level tests work unchanged.
*)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A dense Float64 vector. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t
(** A dense Float64 matrix, row-major. *)

(** {1 Vectors} *)

val create : int -> t
(** [create n] is a fresh zero-filled vector of length [n]. *)

val length : t -> int

val fill : t -> float -> unit

val copy : t -> t

val blit : t -> t -> unit
(** [blit src dst] copies [src] into [dst]; lengths must match. *)

val sub : t -> int -> int -> t
(** [sub v pos len] is a {e view} sharing storage with [v] — writes
    through either alias are visible in both. *)

val of_array : float array -> t

val to_array : t -> float array

val sum : t -> float
(** Left-to-right sum, same accumulation order as
    [Array.fold_left (+.) 0.]. *)

(** {1 Matrices} *)

val mat_create : int -> int -> mat
(** [mat_create rows cols], zero-filled. *)

val row : mat -> int -> t
(** [row m i] is a {e view} of row [i] sharing storage with [m]
    ([Bigarray.Array2.slice_left]). *)

val mat_sum : mat -> float
(** Row-major left-to-right sum: same accumulation order as folding
    [(+.)] over rows then elements of a [float array array]. *)

(** {1 Compressed sparse lines} *)

type sparse = {
  ptr : int array;  (** line [l] holds entries [ptr.(l)] to [ptr.(l+1) - 1] *)
  idx : int array;  (** index of each entry within its line, ascending *)
  vals : t array;   (** [vals.(m).{k}]: entry [k]'s value in matrix [m] *)
}
(** The entries of one or more same-shaped matrices where at least one
    of them is nonzero, line by line.  A loop over a line's entries adds
    the same nonzero terms, in the same order, as a loop over the dense
    line; only terms that are zero in every matrix are left out. *)

val compress_rows : mat array -> sparse
(** Line [i] holds row [i]'s entries, by ascending column.  The
    matrices must be non-empty in number and of one shape. *)

val transpose : sparse -> int -> sparse
(** [transpose sp width] regroups the entries of [sp], whose indices
    lie in [\[0, width)], by index: line [j] of the result holds the
    entries with index [j], by ascending line of [sp].  So
    [transpose (compress_rows ms) cols] holds the matrices' columns.
    O(entries + width). *)
