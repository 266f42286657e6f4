(** What-if analysis: exact marginal costs of local changes.

    Given a partitioning, a DBA (or an external tool) often wants to know
    what each small deviation would cost {e before} re-running a solver:
    move one transaction, add one replica, drop one.  This module computes
    the exact objective-(4) delta of every such single change through the
    annealer's incremental evaluator {!Delta_cost}: a replica change costs
    its site aggregate [coef.(s).(a) = c2(a) + Σ_{t homed at s} c1(t,a)],
    and a transaction move, which also pays for the replicas
    single-sitedness forces, is applied, priced and undone.

    A partitioning is {e locally optimal} when no delta is negative; the
    QP's optimum satisfies this up to the MIP gap (tested). *)

type txn_move = {
  txn : int;
  to_site : int;
  delta : float;                 (** change in objective (4); negative = improvement *)
  forced_replicas : int list;    (** attributes that would gain a copy on [to_site] *)
}

type replica_change = {
  attr : int;
  site : int;
  action : [ `Add | `Drop ];
  delta : float;
}

type report = {
  base_cost : float;                  (** objective (4) of the input *)
  txn_moves : txn_move list;          (** every (t, s ≠ home), ascending delta *)
  replica_changes : replica_change list;
      (** every legal add/drop, ascending delta; drops of forced or last
          copies are omitted (they would be infeasible) *)
}

val analyze : Instance.t -> p:float -> Partitioning.t -> report
(** @raise Invalid_argument if the partitioning does not validate. *)

val best_improvement : report -> float
(** The most negative delta in the report, or [0.] if none — zero means
    the partitioning is locally optimal under single moves. *)

val pp : Instance.t -> ?limit:int -> Format.formatter -> report -> unit
(** Human-readable top-[limit] (default 10) moves of each kind. *)
