(** Arbitrary-precision rational arithmetic, dependency-free.

    This is the substrate of the exact certificate auditor
    ([Vpart_certify.Certify.Exact]): every arithmetic fact the float
    certifiers establish within a tolerance can be re-derived here with
    {e no} tolerance at all.  The design constraints are

    - {b no external dependencies} — the sealed environment has no zarith,
      so numerators and denominators are big naturals implemented in-module
      (little-endian limbs in a power-of-two base with schoolbook
      multiplication, shift-and-subtract division and binary gcd);
    - {b lossless float embedding} — {!of_float} decomposes the IEEE-754
      double into sign, mantissa and exponent ([m · 2^e] with integer [m])
      and builds the {e exact} rational it denotes.  Every coefficient,
      bound, right-hand side, dual multiplier and solution coordinate a
      float-based solver emits therefore embeds without loss, and sums /
      products / comparisons of embedded artifacts are exact.

    Values are kept normalized: the denominator is positive and coprime
    with the numerator, so {!equal} and {!compare} are structural truths,
    not tolerance checks.  Normalizing a dyadic value (denominator a
    power of two: every embedded double and every sum or product of them)
    costs two shifts; only other values pay for a gcd and a long
    division. *)

type t
(** A rational number.  Immutable. *)

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero when [den = 0]. *)

val of_float : float -> t
(** The exact rational value of a finite IEEE-754 double, via
    mantissa/exponent decomposition: for normal doubles
    [(-1)^s · (2^52 + frac) · 2^(e - 1075)], for subnormals
    [(-1)^s · frac · 2^(-1074)].  No rounding is involved — note that
    e.g. [of_float 0.1] is {e not} [make 1 10] but the exact dyadic
    [3602879701896397 / 2^55] the literal denotes.
    @raise Invalid_argument on NaN or infinities. *)

val of_float_opt : float -> t option
(** [of_float] returning [None] instead of raising on non-finite input. *)

val to_float : t -> float
(** Nearest-double approximation.  Exact (bit-for-bit round-trip with
    {!of_float}) whenever the value is representable as a finite double;
    within 2 ulp otherwise (the conversion divides 53-bit prefixes, which
    can double-round).  Used for display, never inside exact checks. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** @raise Division_by_zero on {!zero}. *)

val div : t -> t -> t
(** @raise Division_by_zero when the divisor is {!zero}. *)

(** {1 Comparison} *)

val compare : t -> t -> int
(** Total order; exact (cross-multiplied, never through floats). *)

val equal : t -> t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool

val min : t -> t -> t
val max : t -> t -> t

(** {1 Printing} *)

val to_string : t -> string
(** Exact decimal rendering ["num/den"] (["num"] when the denominator is
    1), e.g. [to_string (make 3 6) = "1/2"]. *)

val to_short_string : t -> string
(** Human-scale rendering for diagnostics: the exact ["num/den"] when it
    is short enough to read, otherwise a ["~%g"]-style nearest-double
    approximation (still derived from the exact value). *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_short_string}. *)
