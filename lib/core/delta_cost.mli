(** Incremental (delta) evaluation of objective (6), and the one state
    of the annealer.

    {!Cost_model.objective} is O(txns × attrs × sites) per call; the
    annealer and the polish loops evaluate thousands of candidate layouts
    that each differ from the previous one by a single attribute flip or
    transaction re-assignment.  This module caches everything objective
    (1)/(4)/(6) needs — per-transaction home-site row widths, per-attribute
    replica counts, the per-site work vector of equation (5), and the
    Appendix-A latency indicators — and updates those caches in
    O(affected coefficients) per move.

    In [Replicated] mode (see {!mode}) it also keeps the four site
    aggregates the exact sub-steps of the annealer (§3) read, so a y- or
    x-step costs O(attrs × sites) or O(txns × sites) rather than
    O(txns × attrs):

    - [coef.(s).(a) = c2(a) + Σ_{t at s} c1(t,a)], the cost of a replica
      of [a] on [s] (the y-step coefficient);
    - [forced.(s).(a)], the number of transactions homed at [s] that read
      [a] (φ): a replica single-sitedness forces while it is positive;
    - [score.(s).(t) = Σ_{a placed at s} c1(t,a)], the x-step cost of
      homing [t] on [s];
    - [miss.(s).(t)], the number of attributes [t] reads that are not
      placed at [s]: [t] may be homed at [s] only when it is 0.

    Three entry points change the layout, {!flip}, {!assign} and
    {!move_component}.  Each updates every cache and aggregate in the
    walk over the line it touches, pushes one move on the undo journal,
    and allocates nothing once the journal has grown to the caller's
    largest burst; callers read {!objective} or {!cost} afterwards.
    {!undo_move} and {!undo_to} replay the inverse primitives, so a
    rejected proposal is [undo_to] a {!mark}: the layout and the counts
    come back exactly, the float sums up to the rounding of the replay.

    The evaluator is a {e cache}, not an oracle: the full
    {!Cost_model.objective} remains the ground truth that final claims and
    the C2xx certificates are checked against.  Incremental float updates
    drift by rounding; callers that run long move sequences should
    {!resync} periodically (the SA solver does so at every epoch
    boundary), and the agreement of objective and aggregates with a
    rebuild is enforced by [test/test_delta.ml] and the [@lint] smoke. *)

type t
(** Evaluator state, wrapping (and mutating) a {!Partitioning.t}. *)

(** The layout mode of the caller, which decides the site aggregates
    kept.  [Replicated] keeps all four.  [Disjoint] keeps {!coef} only,
    the one aggregate the disjoint-mode annealer reads, so its moves
    skip the walks that keep {!forced}, {!score} and {!miss}; the
    objective and every other cache are the same in both modes. *)
type mode = Replicated | Disjoint

val create :
  ?latency:Instance.t * float ->
  ?mode:mode ->
  Stats.t ->
  lambda:float ->
  Partitioning.t ->
  t
(** [create ?latency ?mode stats ~lambda part] builds the caches for
    [part] in one full O(txns × attrs) pass.  [part] is owned by the
    evaluator from here on: the moves mutate it in place ({!partitioning}
    returns it).  [latency = (inst, pl)] additionally folds the
    Appendix-A term [lambda·pl·Σ_q f_q·ψ_q] into {!objective}, matching
    the annealed objective of {!Sa_solver} ([inst] must be the instance
    [stats] was computed from).  [mode] defaults to [Replicated].  [part]
    need not be valid: every cache is a pure sum over the layout. *)

val flip : t -> int -> int -> unit
(** [flip t a s] toggles [placed.(a).(s)]: adds or drops the replica of
    attribute [a] on site [s].  O(transactions with a nonzero
    coefficient on [a], or that read [a]). *)

val assign : t -> int -> int -> unit
(** [assign t tx s] moves transaction [tx]'s home to site [s].
    O(attributes with a nonzero coefficient in [tx], or that [tx] reads,
    + [tx]'s write queries).  Changes nothing, but still pushes an empty
    move, when [tx] is already on [s]. *)

val move_component : t -> int array -> int array -> int -> unit
(** [move_component t txns attrs s] re-homes every listed transaction and
    re-places every listed attribute onto exactly site [s] (dropping
    their other replicas): the disjoint-mode component move.  Undone as
    one unit by {!undo_move}. *)

val undo_move : t -> unit
(** Revert the most recent un-undone, un-committed move (composites
    revert as one unit), caches and aggregates included.
    @raise Invalid_argument when the journal is empty. *)

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

val replicas : t -> int -> int
(** Cached replica count of an attribute. *)

val partitioning : t -> Partitioning.t
(** The wrapped (live, mutated-in-place) partitioning. *)

(** {2 Site aggregates}

    The arrays the evaluator keeps current, shared and not copied:
    callers read them and must not write them.  Values after a move are
    those of a rebuild up to the rounding of the updates since the last
    {!create} or {!resync}; [forced] and [miss] are exact counts.

    [coef] and [forced] depend on the transactions' homes only, so a
    {!flip} leaves them bit for bit as they were; [score] and [miss]
    depend on the attribute placement only, so an {!assign} leaves them
    bit for bit.  The annealer's replicated proposal relies on both. *)

val coef : t -> float array array
(** [coef.(s).(a) = c2(a) + Σ_{t at s} c1(t,a)]. *)

val forced : t -> int array array
(** [forced.(s).(a) = #{t at s : φ(t,a)}].
    @raise Invalid_argument on a [Disjoint] evaluator. *)

val score : t -> float array array
(** [score.(s).(t) = Σ_{a placed at s} c1(t,a)].
    @raise Invalid_argument on a [Disjoint] evaluator. *)

val miss : t -> int array array
(** [miss.(s).(t) = #{a : φ(t,a), a not placed at s}].
    @raise Invalid_argument on a [Disjoint] evaluator. *)

val reads : t -> int array array
(** [reads.(t)]: the attributes [t] reads (φ), ascending. *)

val moves_applied : t -> int
(** Total primitive cache updates performed (the moves and
    {!undo_move} count each primitive flip or assign) — the feed for the
    [sa.delta_evals] observability counter. *)
