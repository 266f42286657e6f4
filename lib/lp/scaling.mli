(** Geometric-mean (Curtis–Reid-style) scaling.

    An equilibration pass for ill-scaled models (the [N001]/[N002]/[N007]
    diagnostics of [Vpart_analysis.Numerics_lint]): row factors [r] and
    column factors [c] chosen by iterative geometric-mean balancing so the
    scaled coefficients [a'_ij = r_i * a_ij * c_j] cluster around 1.

    All factors are positive {e powers of two}, so applying and undoing
    the scaling is exact in floating point — solutions, duals and Farkas
    rays back-map bit-for-bit modulo exponent shifts, and certificates on
    the back-mapped artifacts remain meaningful.  Column factors of
    integer variables are pinned to 1: integrality, bounds and branching
    are untouched, which is what lets [Vpart_mip.Mip] scale the LP
    relaxations inside branch-and-bound.  The objective value is
    invariant ([obj'·x' = obj·x]; [obj_const] unchanged); row senses are
    preserved (factors are positive). *)

type scaling = {
  row_scale : float array;  (** [r], one positive power of two per row *)
  col_scale : float array;  (** [c], one per column; 1 for integer columns *)
}

val scaling : Lp.std -> scaling
(** Compute factors by a few geometric-mean balancing sweeps, then round
    to powers of two.  Non-finite and zero coefficients are ignored. *)

val is_identity : scaling -> bool
(** All factors exactly 1 (scaling would be a no-op). *)

val scale : scaling -> Lp.std -> Lp.std
(** The scaled model over [x' = x / c]: coefficients [r·A·c], right-hand
    side [r·b], objective [obj·c], bounds [lb/c, ub/c].
    @raise Invalid_argument on a dimension mismatch. *)

val scale_point : scaling -> float array -> float array
(** Map a structural point into the scaled space: [x' = x / c]. *)

val unscale_point : scaling -> float array -> float array
(** Map a scaled-space structural point back: [x = c · x']. *)

val unscale_duals : scaling -> float array -> float array
(** Map scaled-space row duals (or a Farkas ray) back: [y = r · y']. *)
