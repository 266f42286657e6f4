(** Geometric-mean (Curtis–Reid-style) scaling.

    The equilibration every branch-and-bound solve applies to its model
    before the search (what the [N001]/[N002]/[N007] diagnostics of
    [Vpart_analysis.Numerics_lint] diagnose): row factors [r] and column
    factors [c] chosen by iterative geometric-mean balancing so the
    scaled coefficients [a'_ij = r_i * a_ij * c_j] cluster around 1.

    All factors are positive {e powers of two}, so applying and undoing
    the scaling is exact in floating point — solutions, duals and Farkas
    rays back-map bit-for-bit modulo exponent shifts, and certificates on
    the back-mapped artifacts remain meaningful.  Column factors of
    integer variables are pinned to 1: integrality, bounds and branching
    are untouched, which is what lets [Vpart_mip.Mip] search the scaled
    model with unchanged branching.  The objective value is
    invariant ([obj'·x' = obj·x]; [obj_const] unchanged); row senses are
    preserved (factors are positive). *)

type scaling = {
  row_scale : float array;  (** [r], one positive power of two per row *)
  col_scale : float array;  (** [c], one per column; 1 for integer columns *)
}

val scaling : Lp.std -> scaling
(** Compute factors by a few geometric-mean balancing sweeps, then round
    to powers of two.  Non-finite and zero coefficients are ignored. *)

val scale : scaling -> Lp.std -> Lp.std
(** The scaled model over [x' = x / c]: coefficients [r·A·c], right-hand
    side [r·b], objective [obj·c], bounds [lb/c, ub/c].
    @raise Invalid_argument on a dimension mismatch. *)

val equilibrate : Lp.std -> scaling * Lp.std
(** [equilibrate std] is [(sc, scale sc std)] with [sc = scaling std]:
    the model branch-and-bound searches ([Vpart_mip.Mip.solve]) and the
    factors that map its points and duals back.  Analysis passes that
    report on the searched model call this too, so no second module
    re-derives the transform. *)

val scale_point : scaling -> float array -> float array
(** Map a structural point into the scaled space: [x' = x / c]. *)

val unscale_point : scaling -> float array -> float array
(** Map a scaled-space structural point back: [x = c · x']. *)

val unscale_duals : scaling -> float array -> float array
(** Map scaled-space row duals (or a Farkas ray) back: [y = r · y']. *)
