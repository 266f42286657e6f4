(** The paper's first algorithm: the linearized quadratic program (§2).

    Builds the mixed-integer program (7) — objective (6) with the
    linearization of §2.3 — and solves it with the in-repo branch-and-bound
    solver ({!Vpart_mip.Mip}), mirroring the paper's GLPK setup (time
    limit, 0.1 % MIP gap, and the model scaling [glpsol] applies by
    default).

    Model-size reductions applied (documented in DESIGN.md):

    - attribute grouping (§4) unless [use_grouping = false];
    - when [φ_{a,t} = 1], feasibility forces [y_{a,s} ≥ x_{t,s}], hence
      [x_{t,s}·y_{a,s} = x_{t,s}] in every feasible point and, summed over
      sites, the pair's objective contribution is the constant [c1(a,t)] —
      no [u] variable is created;
    - remaining [u_{t,a,s}] variables receive only the linearization
      constraints their coefficient signs require ([u ≥ x + y - 1] when the
      model pushes [u] down, [u ≤ x] and [u ≤ y] when it pushes up);
    - when no transaction is pre-assigned ([fixed_txns = []]) the sites
      are interchangeable, and the lexicographic pinning [x_{t,s} = 0] for
      [s > t] removes the relabelled copies of each layout from the
      search.  Heuristic partitionings are relabelled to canonical site
      order so they stay feasible, and the certify pass proves the
      pinning sound on the built model ([C112],
      {!Vpart_certify.Certify.certify_site_pinning}). *)

type options = {
  num_sites : int;
  p : float;                   (** network penalty factor (§5: default 8) *)
  lambda : float;              (** cost vs. load-balance weight (§5: 0.1) *)
  allow_replication : bool;    (** [false] forces a disjoint partitioning *)
  use_grouping : bool;
  time_limit : float;          (** seconds (the paper used 1800) *)
  gap : float;                 (** relative MIP gap (the paper used 0.001) *)
  max_rows : int option;       (** give up ("t/o") on larger models *)
  latency : float option;
      (** Appendix A: when [Some pl], adds a latency indicator ψ_q per
          write query (forced to 1 by [ψ_q ≥ y_{a,s} - x_{t,s}] whenever an
          updated attribute is replicated away from the home site — a tight
          linearization of the appendix's quadratic constraints) and the
          term [λ·pl·Σ_q f_q·ψ_q] to the objective. *)
  fixed_txns : (int * int) list;
      (** Pre-assigned transactions [(t, site)] whose [x] variables are
          pinned — the hook the iterative 20/80 solver
          ({!Iterative_solver}) uses to grow a solution batch by batch.
          A non-empty list names concrete sites, so it turns the
          site-symmetry pinning off. *)
  certify : bool;
      (** Self-certification: after the solve, re-derive every claim
          (incumbent feasibility, dual bounds, objective-(6)/cost
          agreement with {!Cost_model.breakdown}, pin satisfaction) with
          {!Vpart_certify.Certify} and {!Solution_certify}, and return the
          findings in [certificate].  Off by default (it re-standardizes
          the model and re-evaluates the instance). *)
  certify_exact : bool;
      (** Exact audit: additionally re-verify every certificate in
          rational arithmetic with zero tolerance
          ({!Vpart_certify.Certify.Exact} + {!Solution_certify.Exact})
          and return the report in [exact].  Independent of [certify] —
          the exact pass re-derives the float verdicts it pairs with. *)
  certify_tol : float option;
      (** Override the float certification tolerance
          ({!Vpart_certify.Certify.options}[.tol], default [1e-5]); also
          used as the relative tolerance of the domain-level [C201]/[C202]
          checks and as the masked-vs-refuted threshold of the exact
          audit. *)
  jobs : int;
      (** Domains the branch-and-bound may use ({!Mip.solve}'s [jobs],
          default 1). *)
  simplex_workspace : Simplex.Workspace.t option;
      (** Float arena pooling the branch-and-bound root simplex storage
          across repeated solves ({!Mip.solve}'s [simplex_workspace]) —
          the batch service's steady state.  Must not be shared across
          concurrent solves; [None] (default) allocates fresh. *)
}

val default_options : options
(** 2 sites, p = 8, λ = 0.1, replication and grouping on, 60 s, 0.1 % gap,
    32000-row cap, no latency term, no pre-assigned transactions (so the
    site-symmetry pinning is on), one domain.  No option sets when the
    node LPs refactorize their basis: the simplex decides that from the
    growth and accuracy of its updated factors ({!Simplex}). *)

type outcome =
  | Proved_optimal       (** optimal within the MIP gap *)
  | Limit_feasible       (** limit hit; best incumbent returned
                             (the paper's parenthesised costs) *)
  | Limit_no_solution    (** limit hit with no incumbent (the paper's t/o) *)
  | Too_large            (** model exceeded [max_rows]; also rendered t/o *)

type result = {
  outcome : outcome;
  partitioning : Partitioning.t option;  (** in the original attribute space *)
  cost : float option;        (** objective (4) of the returned partitioning *)
  objective6 : float option;
      (** objective (6), what the MIP minimized: the latency term is
          included when [latency] is set *)
  bound : float option;       (** best proven lower bound on objective (6) *)
  elapsed : float;
  nodes : int;
  cutoff_prunes : int;
      (** nodes whose LP stopped early at the incumbent, on a verified
          Lagrangian bound ({!Vpart_mip.Mip.stats}) *)
  simplex_iters : int;
  bound_flips : int;  (** bound flips of the dual ratio test, all node LPs *)
  lu_updates : int;  (** basis updates of the factors, all node LPs *)
  refactorizations : int;  (** basis factorizations across all node LPs *)
  eta_applications : int;  (** row-eta applications across all node LPs *)
  model_rows : int;
  model_cols : int;
  row_limit : int option;
      (** the configured [max_rows] cap the solve ran under, so size
          refusals are self-explaining next to [model_rows] *)
  diagnostics : Vpart_analysis.Diagnostic.t list;
      (** non-error findings of the model lint run on the built MIP
          (see {!Vpart_analysis.Model_lint}) *)
  certificate : Vpart_analysis.Diagnostic.t list option;
      (** [Some findings] when [options.certify] was set: the sorted
          [C]-code findings of the independent certification pass (empty
          list = every claim certified clean); [None] otherwise *)
  exact : Vpart_certify.Certify.Exact.report option;
      (** [Some report] when [options.certify_exact] was set: the
          tolerance-free rational re-verification ([E]-codes) of the same
          claims, with per-check exact/float verdict pairs. *)
}

val solve : ?options:options -> Instance.t -> result
(** Builds the MIP, runs {!Vpart_analysis.Model_lint} over it and solves
    it with {!Mip.solve}, whose [heuristic] hook is always the
    rounding-repair procedure: it turns LP relaxation points into vetted
    incumbents at the root and periodically during the search.
    @raise Vpart_analysis.Diagnostic.Errors if the lint reports
    Error-level findings — the solver refuses to run a provably broken
    model (this can only happen on corrupted statistics, e.g. non-finite
    frequencies smuggled past validation). *)

val build_model :
  Stats.t -> options -> Lp.model * (Lp.var array array * Lp.var array array)
(** Exposed for white-box tests: the MIP plus the (x, y) variable layout
    ([fst] indexed [t].(s), [snd] indexed [a].(s)). *)

val certify_site_pinning :
  ?instance:Instance.t -> Stats.t -> options -> Vpart_analysis.Diagnostic.t list
(** Build the layout model for [options] (with the latency indicators when
    [options.latency] and the [instance] [stats] was computed from are
    both given) and run the [C112] check on it,
    as [solve]'s certify pass does whenever the pinning is on: [x], [y]
    and [u] move with their site, [maxload] and [ψ] are site-free.
    Empty list = the pinning is sound.  Exposed so tests can hand the
    check a model whose sites are not interchangeable. *)
