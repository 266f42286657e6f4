(** Numerical conditioning lint (N-codes) over {!Vpart_lp.Lp.std} models.

    Where {!Model_lint} checks {e logical} model health (infeasible bounds,
    empty rows, contradictions), this pass predicts {e numerical} solver
    behaviour from the coefficient data alone: ill-scaled rows and columns,
    big-M constants, near-parallel rows, duplicate columns, root-vertex
    degeneracy and a cheap basis-condition estimate.  The findings
    diagnose the model as built.  Branch-and-bound always searches an
    equilibrated copy ([Vpart_lp.Scaling.equilibrate]), so a scaling
    finding that matters in the search is one equilibration cannot fix:
    a spread on integer columns (factor 1) or one that survives into the
    root solve ([N102]); those call for a reformulation.

    Codes are catalogued in [docs/ANALYSIS.md]:

    - [N001] ill-scaled row (within-row coefficient magnitude ratio)
    - [N002] ill-scaled column (within-column coefficient magnitude ratio)
    - [N003] big-M coefficient (huge both absolutely and relative to the
      median magnitude)
    - [N004] near-parallel rows (angle below tolerance but not exactly
      proportional — a classic source of tiny pivots)
    - [N005] duplicate columns (proportional columns with proportional
      objective coefficients)
    - [N006] predicted root-vertex degeneracy (share of zero right-hand
      sides)
    - [N007] basis condition estimate (column-norm ratio proxy)
    - [N008] objective coefficient range
    - [N101]/[N102] runtime feedback from the simplex kernel
      ({!runtime_feedback}).

    Static findings are aggregated per code — one finding names the worst
    offender and the number of affected rows/columns — so reports stay
    readable on large models. *)

val row_ratio_limit : float
(** In-row magnitude ratio above which [N001] fires (default [1e6]). *)

val col_ratio_limit : float
(** In-column magnitude ratio above which [N002] fires (default [1e6]). *)

val big_m_limit : float
(** Absolute magnitude floor for [N003] (default [1e6]). *)

val big_m_rel : float
(** Relative (vs. median magnitude) floor for [N003] (default [1e4]). *)

val near_parallel_tol : float
(** Max relative deviation for [N004] near-parallelism (default [1e-6]). *)

val degeneracy_warn_share : float
(** Zero-rhs row share above which [N006] is a warning (default [0.5]);
    above {!degeneracy_info_share} it is an info. *)

val degeneracy_info_share : float

val cond_estimate_limit : float
(** Column-norm-ratio estimate above which [N007] is a warning
    (default [1e8]); the estimate is always reported as an info. *)

val obj_ratio_limit : float
(** Objective coefficient magnitude ratio above which [N008] fires
    (default [1e9]). *)

val lint : ?var_name:(int -> string) -> Lp.std -> Diagnostic.t list
(** Run every static numerical check on [std].  [var_name] renders
    column names in messages (default [xj]).  Never raises; models with
    non-finite data get their findings from {!Model_lint} ([M012]) — this
    pass simply skips non-finite entries. *)

val runtime_feedback :
  iterations:int ->
  refactorizations:int ->
  drift_rebuilds:int ->
  recovery_rebuilds:int ->
  max_updates:int ->
  Diagnostic.t list
(** Translate observed simplex kernel counters into diagnostics, closing
    the loop between static prediction and runtime behaviour: [N101]
    (info) summarizes the solve effort (iterations, factorizations, and
    the most basis updates one factorization served); [N102] (warning)
    fires when any drift-triggered (an accuracy loss) or
    numerical-recovery refactorization occurred —
    direct evidence of the ill-conditioning the N-codes predict.  Pass the
    counters of the root LP of the equilibrated model, the one
    branch-and-bound searches ([vpart analyze --solve-root] does). *)
