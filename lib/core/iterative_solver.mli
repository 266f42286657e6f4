(** Iterative 20/80 solver (second improvement of the paper's §4).

    "Assuming that transactions follow the 20/80 rule (20% of the
    transactions generate 80% of the load), the problem can be solved
    iteratively over T starting with a small set of the most heavy
    transactions."

    The solver sorts transactions by their byte-traffic weight, solves the
    QP for the heaviest ~20 % first, then repeatedly adds the next batch of
    transactions with the previous batches' site assignments {e pinned}
    (via {!Qp_solver.options.fixed_txns}) and re-solves — so each round's
    integer program only branches on the new transactions' [x] variables
    while every [y] stays free.  The last round covers the full workload
    and yields the returned partitioning.

    This trades optimality for scaling: each round's search space is
    exponentially smaller than the monolithic program's, while attribute
    placement is still globally re-optimized every round.

    After the last round the replica set is {e polished}: first-improvement
    replica flips on the full annealed objective (objective (6) plus the
    Appendix-A latency term when configured), evaluated through the
    {!Delta_cost} incremental kernel, bounded to two sweeps.  Pure y-moves
    never break the pin contract; flips that would break coverage or read
    single-sitedness are not proposed.  Skipped with
    [qp.allow_replication = false] or a single site.  Reported cost and
    objective are re-derived from {!Cost_model} (never from the delta
    caches), and with [qp.certify] the polished layout gets fresh
    feasibility/cost/objective certificates. *)

type options = {
  qp : Qp_solver.options;   (** per-round solver setup; [qp.time_limit] is
                                the budget for the {e whole} run, split
                                across rounds *)
  rounds : int;             (** number of batches (>= 1; 1 = plain QP) *)
  first_fraction : float;   (** share of transactions in the first batch
                                (the "20" of 20/80) *)
}

val default_options : options
(** {!Qp_solver.default_options}, 4 rounds, first batch 20 %. *)

type round_info = {
  txns_considered : int;
  outcome : Qp_solver.outcome;
  elapsed : float;
  pins_violated : int;
      (** number of previous-round pins the batch's solution broke
          ([C204] findings; always 0 unless [qp.certify] is set, which
          enables the per-round check) *)
}

type result = {
  outcome : Qp_solver.outcome;          (** of the final (full) round *)
  partitioning : Partitioning.t option; (** original attribute space *)
  cost : float option;                  (** objective (4), after polish *)
  objective6 : float option;
      (** objective (6) after polish, latency term included when
          [qp.latency] is set *)
  elapsed : float;
  rounds : round_info list;             (** in execution order *)
  diagnostics : Vpart_analysis.Diagnostic.t list;
      (** non-error model-lint findings of the final (full) round; each
          round's MIP is linted by {!Qp_solver.solve}, which raises
          {!Vpart_analysis.Diagnostic.Errors} on Error-level findings *)
  certificate : Vpart_analysis.Diagnostic.t list option;
      (** [Some findings] when [qp.certify] was set: every round's [C204]
          pin-contract findings plus the final round's full
          {!Qp_solver} certificate; [None] otherwise *)
  exact : Vpart_certify.Certify.Exact.report option;
      (** [Some report] when [qp.certify_exact] was set: the final round's
          exact audit merged with the exact re-audit of the polished
          layout's cost/objective claims. *)
}

val transaction_weights : Instance.t -> float array
(** Byte-traffic weight per transaction:
    [Σ_{q∈t} f_q · Σ_{tables r of q} row_width(r) · n_r] — the quantity the
    20/80 ordering sorts by. *)

val solve : ?options:options -> Instance.t -> result
