(** Independent certificates for solver claims.

    The branch-and-bound solver ({!Vpart_mip.Mip}) makes three kinds of
    claims: {e this point is feasible}, {e no better objective than this
    bound exists}, and {e the problem is infeasible}.  This module is the
    trusted checker of the untrusted-solver/trusted-checker split: it
    re-derives every claim using only the {e original} (unscaled,
    pre-patching) standard form and the artifacts the solver returned —
    it never re-runs the solver and never trusts intermediate solver
    state.  The arithmetic here is a few hundred lines of dot products;
    the solver is thousands of lines of pivoting and search.

    Checks are reported as {!Vpart_analysis.Diagnostic} findings with the
    [C1xx] code family (catalogued in [docs/ANALYSIS.md]); the domain-level
    certificates ([C2xx], comparing MIP objectives against the independent
    cost model) live in [Vpart.Solution_certify], which depends on the core
    types.

    {2 The mathematics}

    For a minimization standard form [min cᵀx + k] s.t. [Ax cmp b],
    [l <= x <= u], any multiplier vector [y] inside the {e dual cone}
    ([y_r <= 0] on [<=] rows, [y_r >= 0] on [>=] rows, free on [=] rows)
    yields the Lagrangian bound

    {v L(y) = k + yᵀb + Σ_j min(d_j·l_j, d_j·u_j),   d = c − Aᵀy v}

    which is a valid lower bound on the optimum for {e any} such [y] —
    so the checker clamps out-of-cone components to zero (reporting them)
    rather than rejecting the certificate.  Infeasibility certificates are
    the same machinery with [c = 0]: a ray [y] proves infeasibility when
    [yᵀb] lies strictly outside the range of [yᵀ(Ax + s)] over the
    variable boxes and slack cones. *)

module Diagnostic = Vpart_analysis.Diagnostic

type options = {
  tol : float;
      (** primal/dual residual tolerance for the float-layer checks
          (default [1e-5], matching the solver's own incumbent vetting);
          relative thresholds are [tol·(1+|reference|)]. *)
  cone_tol : float;
      (** dual-cone projection tolerance (default [1e-7]): out-of-cone
          components beyond it are reported, smaller ones are zeroed
          silently. *)
}
(** Tolerances of the {e float} certification layer, exposed so callers
    (and the CLI's [certify --tol]) can tighten or relax them.  Every
    finding reports the actual residual alongside the threshold that
    judged it, so the {!Exact} auditor's masked-violation reports are
    actionable. *)

val default_options : options

val certify_point :
  ?tol:float ->
  ?var_name:(Lp.var -> string) ->
  Lp.std ->
  float array ->
  Diagnostic.t list
(** Primal certificate: check that [x] satisfies every bound, row and
    integrality marker of [std] within absolute tolerance [tol] (default
    [1e-5], matching the solver's own incumbent vetting).  Findings:
    [C001] (malformed vector), [C002] (bound), [C003] (integrality),
    [C004] (row).  Empty list = certified feasible. *)

val clamp_duals :
  ?tol:float -> Lp.std -> float array -> float array * Diagnostic.t list
(** Project [y] onto the dual cone of the minimization form [std]
    (see above).  Components outside the cone by more than [tol]
    (default [1e-7]) are zeroed and reported as [C101] warnings;
    sub-tolerance noise is zeroed silently.  The returned vector always
    yields a valid {!lagrangian_bound}. *)

val reduced_costs : Lp.std -> float array -> float array
(** [reduced_costs std y] is [d = c − Aᵀy], computed directly from the
    sparse rows of [std] (length [ncols]). *)

val lagrangian_bound : Lp.std -> float array -> float
(** The bound [L(y)] above for a vector already inside the dual cone
    (callers should {!clamp_duals} first).  May be [neg_infinity] when a
    nonzero reduced cost meets an infinite bound; reduced costs within
    [1e-7·(1+|c_j|)] of zero are treated as zero against infinite bounds
    (safe-bounding compromise, documented in DESIGN.md). *)

val farkas_proves_infeasible : ?tol:float -> Lp.std -> float array -> bool
(** [farkas_proves_infeasible std y] re-derives primal infeasibility from
    a Farkas-style multiplier [y] (one entry per row, e.g. from
    {!Vpart_simplex.Simplex.farkas_ray}): true iff [yᵀb] provably lies
    outside the attainable range of [yᵀ(Ax + s)] over the {e true}
    (unpatched) variable boxes and slack cones, with tolerance scaled by
    the certificate's magnitude.  A ray that only "proves" infeasibility
    of the solver's patched boxes fails here — by design. *)

val certify_mip :
  ?options:options ->
  ?gap:float ->
  ?var_name:(Lp.var -> string) ->
  Lp.model ->
  Mip.outcome ->
  Mip.stats ->
  Diagnostic.t list
(** Certify everything a {!Vpart_mip.Mip.solve} result claims against the
    original [model]:

    - [Optimal]/[Feasible]: the incumbent passes {!certify_point}; its
      claimed objective matches an independent re-evaluation ([C005]);
      the root LP certificate's duals are in the cone ([C101]), its
      reduced costs agree with [c − Aᵀy] ([C102]), the Lagrangian bound
      does not exceed the incumbent (weak duality, [C103]) and agrees
      with the claimed root LP objective ([C104]); complementary
      slackness holds at the root optimum ([C109]).
    - Claimed bounds: the audited proven bound equals the minimum of its
      supporting node bounds ([C110]); outcome bound, audited bound and
      [gap_achieved] are mutually consistent ([C105]); an [Optimal] claim
      whose certified gap exceeds [gap] (default
      {!Vpart_mip.Mip.default_limits}[.gap]) is rejected ([C106]).
    - [Infeasible]: the Farkas ray re-proves infeasibility ([C107]);
      claims with no checkable certificate are flagged [C108].
    - Missing/weakened certificates (no root LP, numerical prunes) are
      surfaced as [C111] infos.

    Findings are sorted most-severe-first; an empty list means every
    claim was independently certified. *)

val certify_site_pinning :
  ?var_name:(Lp.var -> string) ->
  sites:int ->
  assign:Lp.var array array ->
  families:Lp.var array list ->
  Lp.std ->
  Diagnostic.t list
(** [C112]: prove that pinning [assign.(t).(s) = 0] for [s > t] loses no
    optimum of [std].  [assign.(t)] and each of [families] hold one
    column per site (index [s]); every other column is site-free.  With
    the pinned columns of [std] relaxed back to [[0, 1]], the check
    requires:

    - the columns fixed in [std] are exactly [{assign.(t).(s) : s > t}],
      each fixed to 0;
    - every [assign] column is binary, and each [assign.(t)] has a row
      [Σ_s assign.(t).(s) = 1];
    - for every adjacent transposition [(s, s+1)], swapping the
      site-[s] and site-[s+1] columns of every family (and of every
      [assign.(t)]) maps the objective, the bounds, the integrality
      flags and the multiset of rows onto themselves, bit for bit.

    Adjacent transpositions generate every site permutation, so the
    sites are interchangeable.  Any feasible point can then be
    relabelled so that transaction [t]'s one home site is [<= t], with
    the same objective.  Rows are matched through a hash index, so the
    expected cost is [O(sites · nnz)].  Empty list = the pinning is
    sound. *)

(** Tolerance-free re-verification of every certificate in exact rational
    arithmetic ({!Vpart_rational.Rational}).

    The float certifiers above establish each claim within a tolerance; a
    certificate can therefore {e pass} while being genuinely violated
    (the violation hiding below the epsilon, or cancelling catastrophically
    in double precision).  This pure analysis pass embeds every solver
    artifact losslessly into rationals and re-derives the same claims with
    {e zero} tolerance, classifying each one as exactly valid,
    tolerance-masked (exactly violated, but within the float threshold) or
    exactly refuted (violated beyond the float threshold — the float layer
    should have caught it, and when it didn't, the pass says so).

    Findings use the [E]-code family (catalogued in [docs/ANALYSIS.md]).
    On healthy solver output, masked-violation warnings/infos are {e
    normal} — they are honest float roundoff — while exactly-refuted
    errors mean a certificate is wrong.  The [@certify-exact] gate fails
    on errors only. *)
module Exact : sig
  type verdict =
    | Exactly_valid  (** the exact residual is [<= 0]: the claim holds. *)
    | Masked_violation
        (** exactly violated, but by no more than the float threshold —
            invisible to the float layer. *)
    | Exactly_refuted
        (** violated beyond the float threshold: the certificate is
            wrong. *)
    | Unchecked
        (** the artifact needed for the exact re-derivation is missing or
            malformed. *)

  type check = {
    claim : string;  (** what was audited, e.g. ["weak duality"]. *)
    code : string;   (** the E-code that judged (or would judge) it. *)
    float_ok : bool;
        (** the float layer's verdict on the same claim, for the
            exact/float verdict pairs. *)
    verdict : verdict;
    residual : Vpart_rational.Rational.t;
        (** the exact violation amount ([0] when valid/unchecked). *)
    threshold : float;
        (** the float tolerance the residual was classified against. *)
  }

  type report = {
    checks : check list;
    findings : Diagnostic.t list;  (** sorted most-severe-first. *)
  }

  val empty : report
  val merge : report -> report -> report

  val classify :
    threshold:float -> Vpart_rational.Rational.t -> verdict
  (** [classify ~threshold r]: valid when [r <= 0], masked when
      [0 < r <= threshold] (compared exactly), refuted beyond. *)

  val make_check :
    claim:string ->
    code:string ->
    float_ok:bool ->
    threshold:float ->
    Vpart_rational.Rational.t ->
    check
  (** Classify a residual and package it — the constructor used by the
      domain-level exact audits in [Vpart.Solution_certify]. *)

  val counts : report -> int * int * int * int
  (** [(valid, masked, refuted, unchecked)]. *)

  val worst_masked : report -> check option
  (** The masked-violation check with the largest exact residual. *)

  val verdict_label : verdict -> string
  (** ["VALID"], ["MASKED"], ["REFUTED"] or ["unchecked"]. *)

  val pp_check : Format.formatter -> check -> unit
  val pp_report : Format.formatter -> report -> unit

  val certify_point :
    ?options:options ->
    ?var_name:(Lp.var -> string) ->
    Lp.std ->
    float array ->
    report
  (** Exact primal feasibility: every bound, row and integrality marker
      re-checked in rationals.  Exactly-refuted violations are [E001]
      errors (noting when float certification passes anyway);
      tolerance-masked ones aggregate into a single [E002] warning. *)

  val audit :
    ?options:options ->
    ?gap:float ->
    ?var_name:(Lp.var -> string) ->
    Lp.model ->
    Mip.outcome ->
    Mip.stats ->
    report
  (** Exact counterpart of {!certify_mip}: audits the incumbent
      ([E001]/[E002]), the claimed objective ([E003]/[E004]), the dual
      bound — weak duality, bound bookkeeping and the reported gap
      ([E005]/[E006]) — the two-sided root-LP-objective agreement
      ([E007]/[E008]), the float layer's reduced-cost noise
      guard ([E009]), Farkas infeasibility ([E010] refuted / [E011]
      fragile margin), complementary slackness ([E012]/[E013]), bound
      provenance ([E014]) and the optimality-gap claim ([E015]).
      Emits the [certify.exact] Obs span and the [certify.exact_checks] /
      [certify.masked_violations] counters. *)
end
