(** Domain-level certificates: re-derive a solver's claims about the
    layout it returned from the instance definition.

    The MIP-level certificates ([C0xx]/[C1xx], {!Vpart_certify.Certify})
    check a solve against its own model; the checks here close the
    remaining gap between {e model} and {e problem}: the decoded
    partitioning, its cost and its objective-(6) value are re-evaluated
    directly from the {!Instance.t} via {!Cost_model.breakdown}, the
    evaluator-of-record that sums over queries and sites without going
    through the precomputed {!Stats.t} coefficients the solvers
    themselves optimize.  Every solver path — {!Qp_solver},
    {!Sa_solver}, {!Iterative_solver} and the CLI's greedy and affinity
    baselines — certifies its answer through {!certify_claims}.  Codes
    are the [C2xx] and [E1xx] families (catalogued in
    [docs/ANALYSIS.md]). *)

module Diagnostic = Vpart_analysis.Diagnostic

val certify_claims :
  ?cost_code:string ->
  ?latency:float ->
  ?fixed:(int * int) list ->
  tol:float ->
  exact:bool ->
  Instance.t ->
  Stats.t ->
  p:float ->
  lambda:float ->
  Partitioning.t ->
  cost:float ->
  objective6:float ->
  Diagnostic.t list * Vpart_certify.Certify.Exact.report option
(** Certify the claims a solver makes about the layout it returned.
    [stats] must be computed from [inst] itself (not a grouped
    reduction); [p], [lambda] and [latency] (the Appendix-A [pl]
    penalty) are the settings the claims were made with.  The float
    findings, in this order:

    - [C205] when the partitioning fails {!Partitioning.validate}
      (shape, site range, coverage, single-sitedness);
    - [C201] when [objective6] differs from
      [λ·(A + p·B) + (1−λ)·max_s work(s)], plus [λ·pl·Σ_q f_q·ψ_q] when
      [latency] is set, by more than the relative tolerance [tol];
    - [cost_code] (default ["C202"]; {!Sa_solver} uses ["C203"]) when
      [cost] differs from [read_local + write_local + p·transfer];
    - [C204] for every pin of [fixed] (default none) the layout does
      not honour.

    A non-finite claim or re-derivation never passes.  With [exact] the
    report re-derives both values in {!Vpart_rational.Rational}
    arithmetic, every per-attribute weight the exact product of its
    embedded raw factors: [E101] (error) / [E102] (info) for objective
    (6), listed first, and [E103] / [E104] for the cost, where [tol]
    classifies each exact residual as masked or refuted.  The exact
    half runs inside a [certify.exact] Obs span and records the
    [certify.exact.domain.seconds] histogram; the float half records
    [certify.claims.seconds]. *)

val certify_pins :
  fixed:(int * int) list -> Partitioning.t -> Diagnostic.t list
(** [C204] for every [(txn, site)] pin the partitioning does not honour
    (or that indexes out of range) — the contract of
    {!Qp_solver.options.fixed_txns} {!Iterative_solver} checks after
    every round. *)
