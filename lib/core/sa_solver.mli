(** The paper's second algorithm: the simulated-annealing heuristic (§3).

    Algorithm 1 alternately fixes the transaction-assignment vector [x] and
    the attribute-placement vector [y] and re-optimizes the other exactly —
    both subproblems separate:

    - [y] given [x]: per (attribute, site), place where single-sitedness
      forces it ([φ]), replicate wherever the net coefficient
      [Σ_{t at s} c1(a,t) + c2(a)] is negative, otherwise use the cheapest
      single site;
    - [x] given [y]: per transaction, the cheapest site hosting the
      transaction's whole read set.

    Neighborhoods follow §3: a constant fraction (default 10 %) of the
    transactions change site and the same fraction of the attributes gain
    one extra replica.  Acceptance is Metropolis on objective (6); the
    initial temperature follows §5.1
    ([τ = -0.05·C*/ln 0.5], i.e. a 5 %-worse solution is accepted with
    probability 1/2 at the start).

    Disjoint mode ([allow_replication = false]) uses an equivalent
    formulation: single-sitedness without replication forces each connected
    component of the transaction–read-attribute graph to co-locate, so the
    annealer moves whole components between sites and greedily places
    never-read attributes.

    Moves are priced through the {!Delta_cost} incremental evaluator —
    O(affected transactions) per move, undone in place instead of
    restored from snapshots — whose site aggregates the exact sub-steps
    read, and which is resynced against float drift at every epoch
    boundary.  The start layouts, the collapsed candidate and the
    portfolio's side polish run the same sub-steps on a fresh
    evaluator.  The final claims are re-derived from {!Cost_model}. *)

type options = {
  num_sites : int;
  p : float;
  lambda : float;
  allow_replication : bool;
  use_grouping : bool;
  seed : int;               (** PRNG seed; results are deterministic per seed *)
  move_fraction : float;    (** §3: fraction of txns/attrs perturbed (0.10) *)
  inner_loops : int;        (** L in Algorithm 1 *)
  freeze_ratio : float;     (** frozen when τ < freeze_ratio·τ₀ *)
  max_outer : int;
  time_limit : float option;
  latency : float option;
      (** Appendix A: when [Some pl], adds [λ·pl·Σ_q f_q·ψ_q] to the
          annealed objective (ψ_q = 1 when write query q updates an
          attribute replicated away from its home site). *)
  certify : bool;
      (** Self-certification: re-derive the reported cost/objective from
          {!Cost_model.breakdown} and a from-scratch evaluation of the
          annealer's tracked best, returning the findings in
          [certificate].  Off by default. *)
  certify_exact : bool;
      (** Exact audit: re-derive the reported cost and objective-(6)
          claims in rational arithmetic ({!Solution_certify.Exact}),
          returning the report in [exact].  The annealer emits no
          MIP-level artifacts, so there is no dual/Farkas side here. *)
  certify_tol : float option;
      (** Override the float certification tolerance (default [1e-6] for
          the domain-level checks); also the masked-vs-refuted threshold
          of the exact audit. *)
  restarts : int;
      (** Portfolio width: number of independent annealing chains.  With
          [restarts = 1] (default) the solver runs the single sequential
          chain, bit for bit as before.  With more, chain 0 anneals that
          same stream and chains 1.. run {!Rng.split} streams of [seed];
          chains exchange their best layouts at epoch boundaries, and the
          reported best is never worse than the best of the same chains
          run in isolation — in particular never worse (in objective (6))
          than the [restarts = 1] run on the same seed. *)
  jobs : int;
      (** Domains the portfolio may occupy (capped at [restarts]);
          1 (default) runs the chains sequentially on the caller.  The
          set of chain trajectories is identical for every [jobs] value
          when [time_limit] is [None]; only wall-clock changes. *)
}

val default_options : options
(** 2 sites, p = 8, λ = 0.1, replication and grouping on, seed 1,
    10 % moves, L = 40, freeze at τ₀/1000, at most 400 outer rounds,
    no time limit, no latency term, one chain ([restarts = 1]) on one
    domain ([jobs = 1]).

    Two schedule constants are not options: the cooling factor
    ρ = 0.85 of Algorithm 1, and §5.1's initial-temperature gap of 5 %
    (τ₀ is set so that a solution 5 % worse than the start is accepted
    with probability 1/2).

    The returned solution is additionally never worse (in objective (6))
    than the best {e collapsed} layout — all transactions on one site with
    optimally placed attributes — which the random-start annealer cannot
    always reach on instances where partitioning does not pay. *)

type search_stats = {
  moves : int;                    (** proposals evaluated (= [iterations]) *)
  accepted_moves : int;
  rejected_moves : int;
  epochs : int;                   (** outer cooling rounds (= [outer_rounds]) *)
  initial_temperature : float;    (** τ₀ from the §5.1 accept-gap rule *)
  final_temperature : float;      (** τ when the search froze or was cut off *)
}
(** Search statistics of the annealing run, reported via
    {!Report.pp_sa_search} and mirrored in the [sa.*] observability
    counters (see [docs/OBSERVABILITY.md]). *)

type result = {
  partitioning : Partitioning.t;  (** original attribute space; validated *)
  cost : float;                   (** objective (4) *)
  objective6 : float;
      (** objective (6), the annealed quantity (latency term included
          when [latency] is set) *)
  elapsed : float;
  iterations : int;               (** inner iterations executed *)
  accepted : int;                 (** accepted moves *)
  outer_rounds : int;
  search : search_stats;
      (** aggregated search statistics: with one chain, that chain's; with
          a portfolio, moves/accepted/rejected summed over chains, epochs
          the maximum, final temperature the minimum *)
  chains : search_stats array;
      (** per-chain search statistics, [restarts] entries in chain order
          (chain [i] runs on split seed [i]); a single-element array when
          [restarts = 1] *)
  certificate : Vpart_analysis.Diagnostic.t list option;
      (** [Some findings] when [options.certify] was set ([C203]/[C201]/
          [C205] checks; empty = certified clean); [None] otherwise *)
  exact : Vpart_certify.Certify.Exact.report option;
      (** [Some report] when [options.certify_exact] was set: the
          tolerance-free rational re-verification ([E101]-[E104]) of the
          reported cost and objective. *)
}

val solve : ?options:options -> Instance.t -> result
