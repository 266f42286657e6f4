(** Sparse LU factorization of a simplex basis with Markowitz pivoting.

    [factor] computes [P B Q = L U] for the m×m basis matrix [B] given by
    its sparse columns: at every elimination step the pivot is chosen to
    minimize the Markowitz count [(r-1)(c-1)] among entries passing a
    relative threshold test (threshold partial pivoting, τ = 0.1), which
    bounds fill-in while keeping the factors stable.  [L] is unit lower
    triangular, [U] upper triangular, both in pivot-order index space;
    each is stored twice, by columns and by rows, in flat index/value
    array pairs.  A solve takes its right-hand side with the list of its
    nonzero positions and returns the solution with the list of its
    nonzeros ({!ftran} solves [B w = b], {!btran} solves [Bᵀ v = u]).
    Each of its two triangular stages first finds the reach of the
    nonzeros in the factor's graph by a depth-first search (Gilbert and
    Peierls), then computes the entries of the reach, in topological
    order, each as a gather over one stored line.  So a solve costs
    O(nonzeros of the factor lines it reaches), not O(m): an entering
    column or a unit row of the simplex touches a small part of [B⁻¹].
    The lines the first stage gathers over are sorted by pivot index, so
    an entry adds its terms in the order of the classic zero-skipping
    forward substitution; results equal that substitution's, over all m
    steps, but for the sign of a zero.

    Storage: the elimination, and the solves, work in storage owned by
    the calling domain (dynamic columns, row lists, count buckets, scatter
    arrays, the staged factors, the solves' vector and search stacks; its
    int and float buffers are bigarrays, outside the OCaml heap), which
    every factorization and solve that domain runs reuses.  That storage
    keeps no state between calls that affects a result: a factor
    computed, or a solve run, right after a differently shaped basis is
    bit-identical to one on a fresh domain.  It stays allocated, at the
    size of the largest basis the domain has factored or solved with,
    for the domain's lifetime.  The result never aliases it and is not
    changed by any solve: {!Simplex.copy} shares factors across
    branch-and-bound worker domains, and pivot updates are layered on
    top as product-form etas rather than by mutating L/U.  Only a later
    [factor ~reuse] writes over a factorization's arrays, so that a
    solver refactorizing its basis every few dozen pivots allocates
    nothing in the steady state. *)

type t

val factor :
  ?reuse:t -> int array array -> float array array -> int array -> t option
(** [factor cols_idx cols_val basis] factors the square matrix whose
    [k]-th column is column [basis.(k)] of the sparse column set
    ([cols_idx.(j)] row indices, [cols_val.(j)] values, one entry per
    row, unordered).  Returns [None] when the matrix is structurally or
    numerically singular (no remaining entry passes the absolute pivot
    tolerance 1e-12).

    [reuse] hands over an earlier factorization that nothing will read
    again: the result may be built in its arrays, which it overwrites.
    When [None] is returned, [reuse] is left as it was. *)

val identity : int -> t
(** Trivial factors of the m×m identity — the all-slack start basis. *)

val size : t -> int
(** Dimension m. *)

val nnz : t -> int
(** Total stored nonzeros of L and U (including the m unit/pivot
    diagonals) — the [simplex.lu_nnz] observability gauge. *)

val ftran : t -> Vec.t -> int array -> int -> int
(** [ftran lu b nz n] overwrites [b] (length m, constraint-row space)
    with [w = B⁻¹ b] (basis-position space).  On entry [b] is zero
    outside the [n] distinct positions [nz.(0 .. n-1)] (listed positions
    may hold zeros; [n = m] lists every position).  On return
    [nz.(0 .. k-1)] are exactly the positions of the nonzeros of [w], in
    no particular order, where [k] is the result.  [nz] has length at
    least m. *)

val btran : t -> Vec.t -> int array -> int -> int
(** [btran lu u nz n] overwrites [u] (length m, basis-position space)
    with [v = B⁻ᵀ u] (constraint-row space); [nz], [n] and the result as
    in {!ftran}. *)
