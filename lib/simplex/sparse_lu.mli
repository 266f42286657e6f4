(** Sparse LU factorization of a simplex basis with Markowitz pivoting,
    kept current across basis changes by a Forrest–Tomlin update.

    {!refactor} computes [P B Q = L U] for the m×m basis matrix [B] given
    by its sparse columns: at every elimination step the pivot is chosen
    to minimize the Markowitz count [(r-1)(c-1)] among entries passing a
    relative threshold test (threshold partial pivoting, τ = 0.1), which
    bounds fill-in while keeping the factors stable.  [L] is unit lower
    triangular and [U] upper triangular, both indexed by labels (a row or
    column's elimination step); each is stored twice, by rows and by
    columns.  A solve takes its right-hand side with the list of its
    nonzero positions and returns the solution with the list of its
    nonzeros ({!ftran} solves [B w = b], {!btran} solves [Bᵀ v = u]).
    Its triangular stages first find the reach of the nonzeros in the
    factor's graph by a depth-first search (Gilbert and Peierls), then
    compute the entries of the reach, in topological order, each as a
    gather over one stored line.  So a solve costs O(nonzeros of the
    factor lines it reaches), not O(m): a unit row of the simplex
    touches a small part of [B⁻¹].  The one exception is ftran's U
    stage, a column-oriented back substitution over all of U's pivot
    order that skips every label whose entry is zero: an entering
    column's solve is dense enough, and cancels enough, that this costs
    less than the reach.
    On a fresh factorization the lines the first stage gathers over are
    sorted by label, so an entry adds its terms in the order of the
    classic zero-skipping forward substitution; results equal that
    substitution's, over all m steps, but for the sign of a zero.  A
    solve drops, as round-off of cancelled terms, the entries of at most
    1e-14 of its intermediate vectors (the first stage's result, the
    spike, the entries ftran's U stage divides, btran's U stage) and of
    a btran's result: kept, they would widen the next reach and, through
    the updates, U itself.  The U stage of a btran kept for {!replace}
    drops relative to its root entry [z_k] instead, when that is below
    1, so that the update keeps the ratios it needs however large U's
    pivots are.

    Update ({!replace}; Forrest and Tomlin 1972, Suhl and Suhl 1993): a
    basis change replaces column k of [U] by the spike [L⁻¹ P a] of the
    entering column, moves label k to the end of [U]'s pivot order, and
    eliminates the old row k into one row eta [R = I − e_k μᵀ], so that
    [B⁻¹ = Q U⁻¹ R_t ⋯ R_1 L⁻¹ P] after t updates.  [U] is mutated in
    place; its lines have room to grow.  Ftran applies every row eta (a
    gather of its multipliers); btran applies only those whose own entry
    is nonzero, so a sparse unit row stays cheap.  The caller decides
    when to refactorize, from {!nnz} against {!factor_nnz}, {!updates}
    and the accuracy {!replace} reports.

    Storage: the elimination, and the solves, work in storage owned by
    the calling domain (dynamic columns, row lists, count buckets, scatter
    arrays, the staged factors, the solves' vector and search stacks; its
    int and float buffers are bigarrays, outside the OCaml heap), which
    every factorization and solve that domain runs reuses.  That storage
    keeps no state between calls that affects a result: a factor
    computed, or a solve run, right after a differently shaped basis is
    bit-identical to one on a fresh domain.  It stays allocated, at the
    size of the largest basis the domain has factored or solved with,
    for the domain's lifetime.  The factors themselves live in [t]'s own
    arrays, which a later {!refactor} of [t] writes over and grows only
    when they are too small, so a solver refactorizing its basis
    allocates nothing in the steady state. *)

type t

val refactor : t -> int array array -> float array array -> int array -> bool
(** [refactor t cols_idx cols_val basis] factors, into [t], the square
    matrix whose [k]-th column is column [basis.(k)] of the sparse column
    set ([cols_idx.(j)] row indices, [cols_val.(j)] values, one entry per
    row, unordered), dropping [t]'s updates.  Returns [false], leaving
    [t] as it was, when the matrix is structurally or numerically
    singular (no remaining entry passes the absolute pivot tolerance
    1e-12). *)

val identity : int -> t
(** Trivial factors of the m×m identity — the all-slack start basis. *)

val set_identity : t -> int -> unit
(** [set_identity t m] makes [t] the factors of the m×m identity, in
    [t]'s storage. *)

val copy : t -> t
(** An independent copy: later updates or refactorizations of either
    leave the other as it was. *)

val size : t -> int
(** Dimension m. *)

val nnz : t -> int
(** Stored nonzeros of L, U (including the m diagonal entries) and the
    row etas — the [simplex.lu_nnz] observability gauge. *)

val factor_nnz : t -> int
(** {!nnz} right after the last factorization. *)

val updates : t -> int
(** Updates since the last factorization. *)

val row_eta_applications : t -> int
(** Row etas the solves of [t] have applied, summed over its lifetime:
    every row eta of every ftran, and each row eta of a btran whose own
    entry was nonzero. *)

val ftran : ?keep:bool -> t -> Vec.t -> int array -> int -> int
(** [ftran lu b nz n] overwrites [b] (length m, constraint-row space)
    with [w = B⁻¹ b] (basis-position space).  On entry [b] is zero
    outside the [n] distinct positions [nz.(0 .. n-1)] (listed positions
    may hold zeros; [n = m] lists every position).  On return
    [nz.(0 .. k-1)] are exactly the positions of the nonzeros of [w], in
    no particular order, where [k] is the result.  [nz] has length at
    least m.  With [keep] the spike of [b] is kept for {!replace}. *)

val btran : ?keep:bool -> t -> Vec.t -> int array -> int -> int
(** [btran lu u nz n] overwrites [u] (length m, basis-position space)
    with [v = B⁻ᵀ u] (constraint-row space); [nz], [n] and the result as
    in {!ftran}.  With [keep], when [u] has one nonzero, the part of the
    solve {!replace} needs for that position is kept. *)

val replace : t -> int -> float -> bool
(** [replace lu p alpha] updates the factors for the basis whose column
    at position [p] is the column last solved by [ftran ~keep:true],
    [alpha] being entry [p] of that solve's result (the pivot element).
    When the last [btran ~keep:true] was of the unit vector at [p] and
    nothing changed the factors since, its kept part is used; otherwise
    [replace] recomputes it.  Returns [false] when the pivot recomputed
    along the row disagrees with [alpha] beyond 1e-8 relative: the
    factors are updated all the same, but have lost accuracy and should
    be refactorized.
    @raise Invalid_argument when no spike is kept. *)
