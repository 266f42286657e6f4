(** Incremental (delta) evaluation of objective (6).

    {!Cost_model.objective} is O(txns × attrs × sites) per call; the
    annealer and the polish loops evaluate thousands of candidate layouts
    that each differ from the previous one by a single attribute flip or
    transaction re-assignment.  This module caches everything objective
    (1)/(4)/(6) needs — per-transaction home-site row widths, per-attribute
    replica counts, the per-site work vector of equation (5), and the
    Appendix-A latency indicators — and updates those caches in
    O(affected coefficients) per move, returning the exact objective
    change.

    The evaluator is a {e cache}, not an oracle: the full
    {!Cost_model.objective} remains the ground truth that final claims and
    the C2xx certificates are checked against.  Incremental float updates
    drift by rounding; callers that run long move sequences should
    {!resync} periodically (the SA solver does so at every epoch
    boundary), and the delta-vs-full agreement is enforced by
    [test/test_delta.ml] and the [@lint] smoke. *)

type t
(** Evaluator state, wrapping (and mutating) a {!Partitioning.t}. *)

type move =
  | Flip of int * int
      (** [Flip (a, s)]: toggle [placed.(a).(s)] — add or drop the replica
          of attribute [a] on site [s].  O(transactions with a nonzero
          coefficient on [a]). *)
  | Assign of int * int
      (** [Assign (t, s)]: move transaction [t]'s home to site [s].
          O(attributes with a nonzero coefficient in [t] + t's write
          queries).  A no-op when [t] is already on [s]. *)
  | Move_component of int array * int array * int
      (** [Move_component (txns, attrs, s)]: re-home every listed
          transaction and re-place every listed attribute onto exactly
          site [s] (dropping their other replicas) — the disjoint-mode
          component move.  Undone as one unit by {!undo_move}. *)

(** Reusable cache buffers for repeated {!create} calls (the batch
    service's steady state).  A workspace caches the float vectors and
    site-index arrays for the last problem shape it saw; {!create} reuses
    them verbatim when the shape matches and reallocates otherwise.
    Because {!create}'s full rebuild pass overwrites every cache entry
    before it is read, a pooled evaluator is bit-identical to a fresh
    one.  A workspace must not back two live evaluators at once: each
    {!create} invalidates the previous evaluator drawn from the same
    workspace. *)
module Workspace : sig
  type t

  val create : unit -> t
end

val create :
  ?workspace:Workspace.t ->
  ?latency:Instance.t * float -> Stats.t -> lambda:float -> Partitioning.t -> t
(** [create ?workspace ?latency stats ~lambda part] builds the caches for
    [part] in one full O(txns × attrs) pass.  [part] is owned by the
    evaluator from here on: {!apply_move} mutates it in place
    ({!partitioning} returns it).  [latency = (inst, pl)] additionally
    folds the Appendix-A term [lambda·pl·Σ_q f_q·ψ_q] into {!objective},
    matching the annealed objective of {!Sa_solver} ([inst] must be the
    instance [stats] was computed from).  [workspace] pools the cache
    buffers across calls; see {!Workspace}. *)

val apply_move : t -> move -> float
(** Apply the move to the wrapped partitioning and every cache; returns
    the exact objective-(6) change (new − old, negative = improvement).
    The move is pushed on the undo journal. *)

val undo_move : t -> unit
(** Revert the most recent un-undone, un-committed {!apply_move}
    (composites revert as one unit).  @raise Invalid_argument when the
    journal is empty. *)

val commit : t -> unit
(** Empty the undo journal: every move applied so far becomes permanent
    and {!mark} reads 0 again.  The journal otherwise lives as long as
    the evaluator and holds two ints per primitive update of every
    un-committed move, so a caller that keeps moves (an accepted
    proposal, an improving polish flip) should commit them.  O(1). *)

val mark : t -> int
(** Journal position (the number of un-committed moves), for
    {!undo_to}.  A mark taken before a {!commit} is stale. *)

val undo_to : t -> int -> unit
(** Undo every move applied after the given {!mark}. *)

val resync : t -> unit
(** Rebuild every cache from the wrapped partitioning (full O(txns ×
    attrs) pass), discarding accumulated float drift.  The journal stays
    valid: it records partitioning-level facts, not cache values. *)

val objective : t -> float
(** Cached objective (6): [lambda·cost + (1−lambda)·max_site_work]
    plus the latency term when enabled.  O(sites). *)

val cost : t -> float
(** Cached objective (4). *)

val max_site_work : t -> float

val site_work : t -> float array
(** Fresh copy of the per-site work vector (equation (5)). *)

val replicas : t -> int -> int
(** Cached replica count of an attribute. *)

val partitioning : t -> Partitioning.t
(** The wrapped (live, mutated-in-place) partitioning. *)

val lines : t -> Vec.sparse * Vec.sparse
(** The compressed lines of c1 and c3 the evaluator walks: by
    transaction (rows) and by attribute (columns), holding the entries
    where c1 or c3 is nonzero; [vals.(0)] are c1's values, [vals.(1)]
    c3's.  Built once per {!create} and shared, not copied: callers read
    them and must not write them.  An entry can have c1 = 0 (when c3 is
    not), so a sum over [vals.(0)] differs from one over c1's nonzeros
    at most in the sign of a zero. *)

val moves_applied : t -> int
(** Total primitive cache updates performed ({!apply_move} and
    {!undo_move} both count their primitives) — the feed for the
    [sa.delta_evals] observability counter. *)
