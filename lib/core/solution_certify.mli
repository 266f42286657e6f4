(** Domain-level certificates: re-derive solver cost claims from the
    instance definition.

    The MIP-level certificates ([C0xx]/[C1xx], {!Vpart_certify.Certify})
    check a solve against its own model; the checks here close the
    remaining gap between {e model} and {e problem}: whatever a solver
    reports — a decoded partitioning, a cost, an objective-(6) value —
    is re-evaluated directly from the {!Instance.t} via
    {!Cost_model.breakdown}, the evaluator-of-record that sums over
    queries and sites without going through the precomputed {!Stats.t}
    coefficients the solvers themselves optimize.  Codes are the [C2xx]
    family (catalogued in [docs/ANALYSIS.md]). *)

module Diagnostic = Vpart_analysis.Diagnostic

val certify_partitioning : Stats.t -> Partitioning.t -> Diagnostic.t list
(** [C205] when the partitioning fails {!Partitioning.validate}
    (shape, site range, coverage, single-sitedness). *)

val certify_cost :
  ?tol:float ->
  ?code:string ->
  Instance.t ->
  p:float ->
  Partitioning.t ->
  claimed:float ->
  Diagnostic.t list
(** Re-derive objective (4) as [read_local + write_local + p·transfer]
    from {!Cost_model.breakdown} ([p] must be the network penalty the
    claim was made with) and compare against [claimed] within relative
    tolerance [tol] (default [1e-6]); a non-finite claim or
    re-derivation never passes.  Emits [code] (default ["C202"];
    {!Sa_solver} uses ["C203"] to mark the annealer's fresh-evaluation
    check). *)

val certify_objective6 :
  ?tol:float ->
  ?code:string ->
  Instance.t ->
  p:float ->
  lambda:float ->
  ?latency:float ->
  Partitioning.t ->
  claimed:float ->
  Diagnostic.t list
(** Re-derive objective (6) — [λ·(A + p·B) + (1−λ)·max_s work(s)], plus
    [λ·pl·Σ_q f_q·ψ_q] when [latency] is set — from the breakdown and
    {!Cost_model.latency}, and compare against [claimed] (a non-finite
    claim or re-derivation never passes).  Emits [code]
    (default ["C201"]).  This is the check that catches a drift between
    the MIP/SA objective arithmetic and the paper's cost model. *)

(** Exact (rational) counterparts of the domain certificates, part of the
    {!Vpart_certify.Certify.Exact} auditor: the breakdown and latency are
    re-derived in {!Vpart_rational.Rational} arithmetic with every
    per-attribute weight computed as the exact product of its embedded
    raw factors (attribute width, query frequency, row fraction), so the
    comparison against the claimed value carries no float roundoff at
    all.  Codes: [E101] (error) / [E102] (info) for objective (6),
    [E103] (error) / [E104] (info) for the cost claim. *)
module Exact : sig
  type objective6 = {
    lambda : float;
    latency : float option;  (** the [pl] penalty, when the claim has one *)
    claimed : float;
  }
  (** An objective-(6) claim and the [λ] and latency penalty it was made
      with. *)

  val audit :
    ?tol:float ->
    ?objective6:objective6 ->
    Instance.t ->
    p:float ->
    Partitioning.t ->
    cost:float ->
    Vpart_certify.Certify.Exact.report
  (** Exact re-derivation of the [cost] claim (objective (4)) and, when
      given, the [objective6] claim (latency term included when set), from
      one exact breakdown of the layout.  The report lists the
      objective-(6) check first.  [tol] (default [1e-6]) is the {e float}
      layer's relative tolerance used to classify each exact residual as
      masked vs refuted.  Runs inside the [certify.exact] Obs span, a
      sibling of {!Vpart_certify.Certify.Exact.audit}'s, and records the
      [certify.exact.domain.seconds] histogram. *)
end

val certify_pins :
  fixed:(int * int) list -> Partitioning.t -> Diagnostic.t list
(** [C204] for every [(txn, site)] pin the partitioning does not honour
    (or that indexes out of range) — the contract of
    {!Qp_solver.options.fixed_txns} relied on by {!Iterative_solver}. *)
