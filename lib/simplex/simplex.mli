(** Bounded-variable simplex solver over {!Vpart_lp.Lp.std} models.

    The implementation is a revised simplex supporting both the {e dual}
    and {e primal} methods on variables with general (boxed) bounds.  The
    basis is held as a sparse LU factorization with Markowitz pivoting
    ({!Sparse_lu}), which every pivot updates in place by a
    Forrest–Tomlin update of U: the entering column's spike replaces a
    column of U and one short row eta records the elimination of its old
    row.  The pivot row's btran and the entering column's ftran supply
    what the update needs.  The factors are rebuilt only when the
    updates call for it: when U and the row etas have grown to twice the
    nonzeros of the fresh factors, after 200 updates, or when accuracy
    is lost (an update's pivot check, the periodic basic-value resync,
    a rejected pivot).  These triggers are internal constants and
    counts, never clock time, so a solve is deterministic.  The ftran of
    the entering column and the btran of the pivot row take and return
    lists of nonzeros, the LU solves visit only the reach of their
    right-hand side ({!Sparse_lu}), and the basic-value and devex
    updates walk those lists, so they cost O(nonzeros touched).  Pricing
    scatters the pivot row through the row-major matrix (O(nonzeros of
    the touched rows)).  Two passes of a pivot remain dense, both over
    flat arrays: the leaving row is chosen by one scan of a per-row
    violation array, kept current as basic values change, and the
    ratio-test candidates are collected in ascending variable order by
    one pass over the cols + rows membership flags.  The factors live in
    storage the instance reuses (and a {!Workspace} hands on), so a
    pivot allocates nothing in the steady state.  Factorizations and
    solves run in the calling domain's reusable working storage
    ({!Sparse_lu}).  The dual method prices the leaving row by devex
    reference weights.

    The dual method is the workhorse: starting from the all-slack basis, the
    solver first places every nonbasic variable on the bound that makes its
    reduced cost sign-feasible (infinite bounds are patched to a large
    constant, so this placement always exists), which makes the start dual
    feasible; dual pivots then restore primal feasibility.  Because reduced
    costs do not depend on variable bounds, any basis stays dual feasible
    under arbitrary bound changes — which is exactly what branch-and-bound
    needs for warm starts ({!Vpart_mip.Mip}).

    Ratio test: bound flipping (the long-step test of Fourer, 1994; see
    Koberstein, {e The dual simplex method, techniques for a fast and
    stable implementation}, 2005).  Along the dual step the dual
    objective grows with slope equal to the leaving row's infeasibility;
    each eligible breakpoint j passed costs |α_j|·(u_j − l_j) of that
    slope, since j must move to its other bound to keep its reduced cost
    sign-feasible.  The breakpoints are walked in ratio order (the
    largest |α_j| among ties within 1e-9); every boxed candidate — both
    bounds finite, not patched — passed while the slope stays positive
    is flipped, and the candidate where it stops, or the last one,
    enters.  The flips reach the basic values through one extra ftran of
    [Σ A_j Δx_j], applied only after the entering column has passed the
    pivot-size check, so a rejected pivot leaves every variable in
    place.  With one candidate, or no boxed ones, this is the textbook
    test.  Under Bland's rule the same walk flips nothing and breaks
    ties by the smallest index.

    Cutoff: {!reoptimize} [~cutoff] stops early once the node cannot
    beat [cutoff].  The dual loop keeps the objective of the current
    basic point, which at a dual-feasible basis is the dual objective
    and only grows.  When it reaches the cutoff, the solver computes
    fresh duals [y = c_B·B⁻¹], clamps each row dual to the sign its
    slack allows, and takes the Lagrangian bound
    [y·b + Σ_j min over [l_j, u_j] of (c_j − y·A_j)·x_j] over the current
    box, reading patched bounds as infinite.  Only if that verified bound
    reaches the cutoff does the solve return [Cutoff] ({!cutoff_bound}
    holds the bound).  Otherwise pivoting goes on, and the check runs
    again 32 pivots later, or after the next refactorization if that
    comes first.  So [Cutoff] is never a
    verdict the full solve would contradict: it only arrives sooner.

    Anti-cycling: Bland's rule is engaged after a run of degenerate pivots.
    Numerical safety: candidate pivots below a pivot tolerance are rejected,
    the basis is refactorized on demand, and basic values / reduced costs
    are recomputed from scratch periodically.  A factorization that fails
    on a (near-)singular basis ends the solve with [Numerical]. *)

type status =
  | Optimal        (** primal and dual feasible within tolerances *)
  | Infeasible     (** primal infeasible (dual unbounded) *)
  | Unbounded      (** a structural variable rests on a patched infinite bound *)
  | Iter_limit
  | Time_limit
  | Numerical      (** pivoting stalled; result untrustworthy *)
  | Cutoff
      (** only from {!reoptimize} [~cutoff]: a verified Lagrangian bound
          shows the LP optimum over the current box is at least the
          cutoff (or the LP is infeasible) *)

val string_of_status : status -> string

type result = {
  status : status;
  x : float array;     (** structural variable values (length [ncols]) *)
  obj : float;         (** minimization objective incl. constant *)
  iterations : int;
}

val solve : ?max_iter:int -> ?time_limit:float -> Lp.std -> result
(** Solve the continuous relaxation of [std] (integrality is ignored).
    [time_limit] is wall-clock seconds. *)

(** {1 Incremental interface (for branch-and-bound)} *)

type t
(** A live solver instance: a model plus current basis, bounds, and basic
    values.  Bounds may be tightened/relaxed between calls to {!reoptimize};
    the basis is reused (warm start). *)

(** Reusable float arena for repeated {!create} calls (the batch
    service's steady state).  A workspace owns one growable Float64
    buffer; {!create} carves its dense vectors (costs, bounds, basic
    values, reduced costs, scratch) out of it as zero-filled views
    instead of allocating, so a steady-state solve loop stops paying
    per-solve major-heap allocations for the float payload.  Because
    the carved views are zero-filled exactly like fresh allocations,
    a pooled instance is bit-identical to a fresh one (enforced by
    [test/test_simplex.ml]).  The workspace also keeps the instance's
    basis factors, whose arrays, and the room the updates of U grow
    into, the next instance inherits.  The sparse LU working storage is
    not part of it: each domain keeps its own (see {!Sparse_lu}).

    A workspace must back at most one live instance at a time: each
    {!create} re-carves the buffer and the factors, invalidating the
    previous instance drawn from the same workspace {e and any} {!copy}
    made of it (a copy shares the original's immutable cost/rhs
    views).  {!copy}
    itself always allocates fresh storage and never draws from a
    workspace. *)
module Workspace : sig
  type t

  val create : unit -> t
end

val create : ?workspace:Workspace.t -> Lp.std -> t
(** Build an instance positioned at the dual-feasible all-slack basis,
    whose factors (the identity) are its first factorization, the one
    with reason [start].  Integrality markers in [std] are ignored here.

    [workspace] pools the instance's dense float storage and its factor
    storage across calls; see {!Workspace}. *)

val copy : t -> t
(** Independent snapshot: same model, same current basis/bounds/values,
    but no mutable state shared with the original — the copy and the
    original can be reoptimized concurrently (e.g. on different domains).
    Immutable model data (costs, matrix, right-hand side) is shared; the
    factors, which every pivot updates in place, are copied, so a copy
    is O(rows + cols + factor nonzeros).  A copy
    of a root-optimal instance is a valid warm start for any subtree of a
    branch-and-bound search: the basis stays dual feasible under the
    subtree's bound changes. *)

val set_bounds : t -> int -> lb:float -> ub:float -> unit
(** Change the bounds of structural variable [j].  Infinite values are
    patched as in {!create}.  Takes effect at the next {!reoptimize}. *)

val bounds : t -> int -> float * float
(** Current (possibly patched) bounds of structural variable [j]. *)

val reoptimize :
  ?max_iter:int -> ?deadline:float -> ?cutoff:float -> t -> status
(** Recompute basic values under the current bounds and run the dual
    simplex to optimality.  [deadline] is an absolute timestamp on the
    [Obs.Clock.now] (monotone wall-clock) scale.

    [cutoff] (objective space of the model, without its constant) lets
    the solve end with [Cutoff] as soon as a Lagrangian bound of fresh
    duals over the current box reaches it (see the module header).  The
    instance is then left at a dual-feasible, primal-infeasible basis; a
    later [reoptimize] starts from it with a full recomputation of the
    basic values and reduced costs.  Without [cutoff], [Cutoff] is never
    returned. *)

val cutoff_bound : t -> float option
(** After a {!reoptimize} that returned [Cutoff]: the verified Lagrangian
    bound, at least the cutoff.  [None] otherwise; cleared at the start
    of every reoptimize. *)

val objective : t -> float
(** Objective value of the current (last reoptimized) point. *)

val primal_value : t -> int -> float
(** Current value of structural variable [j]. *)

val primal : t -> float array
(** All structural values, freshly allocated. *)

val iterations : t -> int
(** Total simplex iterations performed by this instance so far. *)

val refactorizations : t -> int
(** Total basis factorizations performed by this instance so far: the
    start basis's, and the rebuilds for growth, the update ceiling,
    drift and numerical recovery.  Each is a [simplex.lu_refactor] span
    whose [reason] attribute says which ([start], [growth], [ceiling],
    [drift], [recovery]). *)

val drift_rebuilds : t -> int
(** Refactorizations forced by a loss of accuracy: the periodic
    basic-value resync detecting drift beyond tolerance, or a basis
    update whose pivot check failed — runtime evidence of
    ill-conditioning (the [N102] diagnostic of
    [Vpart_analysis.Numerics_lint]).  Subset of {!refactorizations}. *)

val recovery_rebuilds : t -> int
(** Refactorizations forced by a rejected (below-tolerance) pivot —
    numerical-recovery rebuilds, the other [N102] evidence source. *)

val pivot_counters : t -> (string * float) list
(** The instance's dual-pivot counters, by observability name:
    - [simplex.pricing_seconds]: choosing the leaving row, scattering the
      pivot row and the ratio test;
    - [simplex.btran_seconds]: the btran of the pivot row [e_r B⁻¹];
    - [simplex.ftran_seconds]: the ftran of the entering column and
      that of the pivot's bound flips;
    - [simplex.ftran_nnz]: nonzeros of every entering-column ftran
      result [B⁻¹ A_q] and bound-flip ftran result, summed;
    - [simplex.btran_nnz]: nonzeros of every pivot-row btran result,
      summed;
    - [simplex.bound_flips]: nonbasic variables moved to their other
      bound by the bound-flipping ratio test;
    - [simplex.lu_updates]: basis updates of the factors, one per
      basis-changing pivot ({!lu_updates}).
    The seconds accumulate only while [Obs.enabled ()]; 0 otherwise. *)

val lu_updates : t -> int
(** Forrest–Tomlin updates of the factors performed by this instance so
    far. *)

val eta_applications : t -> int
(** Row etas applied by this instance's solves so far: every row eta of
    every ftran, and each row eta of a btran whose own entry was
    nonzero.  Mirrored in the [simplex.eta_applications] observability
    counter. *)

val max_updates_per_factor : t -> int
(** High-water number of updates one factorization served, over the
    instance's lifetime — the [simplex.eta_len] observability gauge. *)

val lu_nnz : t -> int
(** Stored nonzeros of the current factors: L, U and the row etas (the
    [simplex.lu_nnz] observability gauge). *)

(** {1 Dual information}

    Available after a successful {!reoptimize}; both are freshly computed
    (one btran plus a column sweep). *)

val duals : t -> float array
(** Dual values [y = c_B·B⁻¹], one per row: the shadow price of each
    constraint at the current basis. *)

val reduced_costs : t -> float array
(** Reduced costs [d_j = c_j - y·A_j] of the structural variables.  At an
    optimum, complementary slackness holds: a variable strictly between its
    bounds has (numerically) zero reduced cost, one at its lower bound has
    [d_j >= 0], one at its upper bound has [d_j <= 0]. *)

val farkas_ray : t -> float array option
(** After a {!reoptimize} that returned [Infeasible]: the row [e_r B⁻¹] of
    the basis inverse for the unrepairable basic variable — a Farkas-style
    multiplier vector (one entry per constraint row) from which primal
    infeasibility can be re-derived independently (see
    [Vpart_certify.Certify.farkas_proves_infeasible]).  Entries no larger
    than 1e-12 times the largest are zeroed: they are btran cancellation
    noise, and a wrong-signed one would void the certificate.  [None]
    before the first reoptimize or when the last reoptimize did not prove
    infeasibility.  Cleared at the start of every reoptimize. *)

(** {1 Primal method}

    Exposed mainly for testing and for completeness of the library; the
    vertical-partitioning pipeline only exercises the dual method. *)

val primal_simplex : ?max_iter:int -> ?deadline:float -> t -> status
(** Run primal pivots from the current point, which must be primal feasible
    (e.g. after a successful {!reoptimize}).  Useful after objective-free
    modifications; returns [Unbounded] when the improving ray is limited
    only by a patched infinite bound. *)
