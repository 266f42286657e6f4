(** Branch-and-bound mixed-integer programming solver.

    Together with {!Vpart_lp.Lp} and {!Vpart_simplex.Simplex} this replaces
    the GLPK MIP solver the paper used: the linearized program (7) is handed
    to {!solve} with a time limit and a relative MIP gap, mirroring the
    paper's 30-minute / 0.1 %-gap setup.

    The search runs on the equilibrated model ({!Scaling.equilibrate}:
    power-of-two row and column factors, integer columns keep factor 1),
    as [glpsol] scales by default.  Solutions, duals and Farkas rays are
    back-mapped {e exactly}, so outcomes and [audit] artifacts are in the
    original spaces.

    Node LPs run on the sparse LU dual simplex of
    {!Vpart_simplex.Simplex} (devex pricing).  The search expands a
    best-bound frontier from the root until it holds [4 * jobs] open
    subtrees, then dives depth-first into each.  Branching only changes
    variable bounds, and any basis stays dual feasible under bound
    changes, so each node costs one warm
    {!Vpart_simplex.Simplex.reoptimize} on a warm-started instance.
    Branching picks the most fractional integer variable, preferring
    higher [priority] values; the child closer to the fractional value
    is explored first.  An optional domain [heuristic] is consulted at
    the root and periodically to produce early incumbents (the
    vertical-partitioning solver plugs in a rounding/repair procedure
    there).

    {b Pruning.}  A node is closed when its LP is infeasible, when it is
    an integral leaf, or by bound: when the node LP's bound reaches the
    prune threshold [inc − 1e-9·max(1, |inc|)] of the incumbent objective
    [inc].  Once an incumbent exists, every node LP runs with that
    threshold as its {!Vpart_simplex.Simplex.reoptimize} [cutoff], so the
    dual simplex stops as soon as a Lagrangian bound of fresh duals over
    the node's box reaches it ([Cutoff]).  That is the same verdict the
    full solve would give, reached in fewer pivots; it is counted as a
    bound prune ([mip.prune.bound]) and also as [mip.prune.cutoff], which
    carries the verified bound, and in [stats.cutoff_prunes].

    {b Vetting.}  Every candidate incumbent (integral node points and
    heuristic proposals), rounded, must satisfy the equilibrated model
    {e and}, unscaled, the original model, with absolute tolerance 1e-5.
    An integral node point whose rounding fails the vet is not trusted:
    its subtree counts as a numerical prune. *)

type limits = {
  time_limit : float option;  (** wall-clock seconds for the whole solve *)
  node_limit : int option;
  gap : float;                (** relative MIP gap at which to stop, e.g. 0.001 *)
  max_rows : int option;
      (** refuse models with more rows — a guard against runaway basis
          work, sized to what the sparse LU simplex of
          {!Vpart_simplex.Simplex} sustains *)
}

val default_limits : limits
(** 60 s, unlimited nodes, gap 0.001, 32000 rows.  The node LPs decide
    themselves when to refactorize their basis (see
    {!Vpart_simplex.Simplex}): no limit sets it. *)

type solution = {
  x : float array;  (** structural values; integer variables are integral *)
  obj : float;      (** objective in the model's original sense *)
}

type outcome =
  | Optimal of solution        (** proven optimal within [gap] *)
  | Feasible of solution * float
      (** a limit was hit, or a subtree was abandoned on numerical trouble,
          before the gap closed; the float is the best proven bound (lower
          bound for minimization, in the original sense) *)
  | No_incumbent of float option
      (** a limit was hit, or a subtree was abandoned on numerical trouble,
          before any integer solution was found *)
  | Infeasible
      (** the search was exhausted without an incumbent and without
          numerical prunes *)
  | Unbounded
  | Too_large of { rows : int; limit : int }
      (** the model has [rows] rows, above the configured [max_rows]
          value [limit] (both are reported so refusals are
          self-explaining in traces and reports) *)

type lp_certificate = {
  lp_x : float array;
      (** LP-relaxation point, original structural space *)
  lp_y : float array;
      (** row duals, original row space, minimization sense *)
  lp_reduced : float array;
      (** reduced costs [c - yᵀA], original structural space, minimization
          sense, recomputed against the original matrix from the
          back-mapped [lp_y]. *)
  lp_obj : float;
      (** LP objective including the constant, minimization sense *)
}
(** Everything an independent checker needs to re-derive the root
    relaxation's claims: weak duality, the Lagrangian bound and
    complementary slackness (see [Vpart_certify.Certify]). *)

type audit = {
  root_lp : lp_certificate option;
      (** root LP relaxation certificate; [Some] whenever the root solved
          to optimality, [None] when it did not (time/iteration/numerical
          trouble, unboundedness) or the model was rejected before any
          simplex work *)
  farkas : float array option;
      (** when the root relaxation proved [Infeasible]: the dual-simplex
          Farkas-style multiplier row from which infeasibility can be
          re-derived.  [None] when the simplex produced no ray, when
          infeasibility was established by exhausting the search tree, or
          when the outcome is not [Infeasible]. *)
  bound_support : float array;
      (** minimization-sense node bounds backing the claimed global lower
          bound at termination: the claimed bound must equal their minimum.
          Empty when no bound was proven. *)
  proven_bound : float option;
      (** minimization-sense global lower bound at exit, when the search
          ran far enough to establish one *)
  numerical_prunes : int;
      (** subtrees abandoned on simplex numerical trouble, or at an
          integral point whose rounding fails the vet; nonzero values void
          the optimality proof down to the abandoned subtrees' bounds, so
          the outcome is [Optimal] only when those bounds close the gap,
          and never [Infeasible] *)
}
(** Independently checkable artifacts from the solve, in the {e original}
    (unscaled) spaces.  Consumed by [Vpart_certify.Certify.certify_mip];
    the solver never verifies its own claims with these. *)

type stats = {
  nodes : int;
  cutoff_prunes : int;
      (** nodes whose LP stopped at the incumbent: closed by a verified
          Lagrangian bound before reaching its optimum (a subset of the
          bound prunes, see "Pruning" above) *)
  simplex_iterations : int;
  bound_flips : int;
      (** bound flips of the dual ratio test across the root instance and
          all worker copies (the [simplex.bound_flips] counter) *)
  lu_updates : int;
      (** basis updates of the factors across the root instance and all
          worker copies (the [simplex.lu_updates] counter) *)
  refactorizations : int;
      (** basis factorizations across the root instance and all worker
          copies *)
  eta_applications : int;
      (** row-eta applications summed likewise.  Emitted as the
          [simplex.eta_applications] counter (and the root's high-water
          updates on one factorization as the [simplex.eta_len] gauge)
          next to [mip.nodes]/[mip.simplex_iterations]. *)
  elapsed : float;          (** seconds *)
  gap_achieved : float;
      (** relative gap at termination.  [infinity] exactly when no finite
          gap exists: there is no incumbent, or no finite proven bound to
          measure the incumbent against (root limit paths). *)
  audit : audit;
}

val solve :
  ?limits:limits ->
  ?priority:(Lp.var -> int) ->
  ?heuristic:(float array -> float array option) ->
  ?jobs:int ->
  ?simplex_workspace:Simplex.Workspace.t ->
  Lp.model ->
  outcome * stats
(** Solve the model.  [priority v] orders branching candidates (higher
    first; default 0).  [heuristic lp_point] may propose a full structural
    assignment built from the current LP relaxation point; proposals are
    vetted against the model before acceptance.  The [heuristic]
    callback sees and returns original-space points.

    [jobs] (default 1) is the number of domains the branch-and-bound may
    use.  The search is the same for every [jobs]: the tree is expanded
    best-bound-first into at least [4 * jobs] open subtrees, whose dives
    then run on a [jobs]-domain {!Par} pool (at [jobs = 1], one after the
    other on the caller).  Every dive owns a private warm-started
    {!Simplex.copy} of the root instance, the incumbent is shared through
    an [Atomic] so all dives prune against the global best, and the
    proven lower bound / [bound_support] aggregate the per-subtree
    proofs (the certificate layer re-checks them).  A solve at
    [jobs = 1] is deterministic.  At [jobs > 1] the timing of the
    incumbent exchange may change the explored tree — and therefore
    [nodes], the incumbent point and exact tie-breaking — but the
    certified objective agrees within [limits.gap].  [priority] and
    [heuristic] callbacks must be thread-safe (pure functions of their
    arguments); the ones built by [Qp_solver] are.

    [simplex_workspace] pools the root simplex instance's dense float
    storage across repeated solves (see
    {!Vpart_simplex.Simplex.Workspace}): a batch loop that solves many
    models through one workspace stops paying per-solve major-heap
    allocations for the simplex vectors.  The workspace must not be
    shared across concurrent [solve] calls; worker copies made under
    [jobs > 1] always allocate fresh storage. *)

val pp_outcome : Format.formatter -> outcome -> unit
