(** The paper's cost model: objectives (1)/(4) and (6).

    Two evaluation paths are provided on purpose:

    - {!cost} and {!objective} work from the precomputed {!Stats.t}
      coefficients — this is the fast path used inside the solvers and is
      algebraically identical to program (4)'s objective;
    - {!breakdown} re-derives the read/write/transfer components directly
      from the instance definition (summing over queries and sites), giving
      an independent implementation whose total must equal {!cost}.  Tests
      and the {!Engine} storage simulator cross-check against it.

    Terminology (Section 2.1): [A = AR + AW] is local storage-layer access
    (bytes read + written), [B] is inter-site transfer, and the total cost
    of a partitioning is [A + p·B].  Load balancing enters through the work
    of the maximally loaded site (equation (5)), weighted by [1 - λ]. *)

type breakdown = {
  read_local : float;     (** AR: bytes read by access methods at home sites *)
  write_local : float;    (** AW: bytes written on every replica site *)
  transfer : float;       (** B: bytes shipped to non-home replica sites *)
  site_work : float array;(** per-site work, equation (5) *)
}

val cost : Stats.t -> Partitioning.t -> float
(** Objective (4): [Σ c1(a,t)·x_{t,s}·y_{a,s} + Σ c2(a)·y_{a,s}]
    = [A + p·B].  This is "the actual cost of a solution" that all paper
    tables report, regardless of λ. *)

val site_work : Stats.t -> Partitioning.t -> float array
(** Equation (5) per site. *)

val max_site_work : Stats.t -> Partitioning.t -> float

val objective :
  ?latency:Instance.t * float -> Stats.t -> lambda:float -> Partitioning.t -> float
(** Objective (6): [λ·cost + (1-λ)·max_site_work], plus the Appendix-A
    term [λ·latency inst ~pl] when [latency = (inst, pl)].  This is what
    both solvers minimize. *)

val breakdown : Instance.t -> Partitioning.t -> breakdown
(** Direct evaluation from the instance (independent of {!Stats}).
    Invariant: [read_local + write_local + p·transfer = cost] for the [p]
    the stats were computed with ([transfer] is reported unweighted). *)

val latency : Instance.t -> pl:float -> Partitioning.t -> float
(** Appendix A estimate: [pl · Σ_q f_q · ψ_q] where [ψ_q] indicates that
    write query [q] updates at least one attribute replicated on a site
    other than its transaction's home site (reads never touch remote sites
    because single-sitedness is enforced). *)

val pp_breakdown : Format.formatter -> breakdown -> unit
