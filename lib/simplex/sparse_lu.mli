(** Sparse LU factorization of a simplex basis with Markowitz pivoting.

    [factor] computes [P B Q = L U] for the m×m basis matrix [B] given by
    its sparse columns: at every elimination step the pivot is chosen to
    minimize the Markowitz count [(r-1)(c-1)] among entries passing a
    relative threshold test (threshold partial pivoting, τ = 0.1), which
    bounds fill-in while keeping the factors stable.  [L] is unit lower
    triangular stored column-wise, [U] upper triangular stored row-wise,
    both in pivot-order index space and each in one flat index/value
    array pair, so the four triangular solves run in
    O(nnz(L) + nnz(U) + m):

    - {!ftran} solves [B w = b] (forward scatter through L with zero
      skipping — the Gilbert–Peierls sparse right-hand-side benefit —
      then a backward gather through U);
    - {!btran} solves [Bᵀ v = u] (forward scatter through Uᵀ with zero
      skipping, then a backward gather through Lᵀ).

    Storage: the elimination works in storage owned by the calling
    domain (dynamic columns, row lists, count buckets, scatter arrays;
    its int and float buffers are bigarrays, outside the OCaml heap),
    which every factorization that domain runs reuses, so a
    factorization allocates only the arrays of its result.  That storage
    keeps no state between calls that affects a result: a factor
    computed right after a differently shaped basis is bit-identical to
    one computed on a fresh domain.  It stays allocated, at the size of
    the largest basis the domain has factored, for the domain's
    lifetime.  The result never aliases it and is immutable after
    construction: {!Simplex.copy} shares factors across branch-and-bound
    worker domains, and pivot updates are layered on top as product-form
    etas rather than by mutating L/U. *)

type t

val factor : int array array -> float array array -> int array -> t option
(** [factor cols_idx cols_val basis] factors the square matrix whose
    [k]-th column is column [basis.(k)] of the sparse column set
    ([cols_idx.(j)] row indices, [cols_val.(j)] values, one entry per
    row, unordered).  Returns [None] when the matrix is structurally or
    numerically singular (no remaining entry passes the absolute pivot
    tolerance 1e-12). *)

val identity : int -> t
(** Trivial factors of the m×m identity — the all-slack start basis. *)

val size : t -> int
(** Dimension m. *)

val nnz : t -> int
(** Total stored nonzeros of L and U (including the m unit/pivot
    diagonals) — the [simplex.lu_nnz] observability gauge. *)

val ftran : t -> work:Vec.t -> Vec.t -> unit
(** [ftran lu ~work b] overwrites [b] (length m, constraint-row space)
    with [B⁻¹ b] (basis-position space).  [work] is caller-provided
    scratch of length m; its contents are clobbered. *)

val btran : t -> work:Vec.t -> Vec.t -> unit
(** [btran lu ~work u] overwrites [u] (length m, basis-position space)
    with [B⁻ᵀ u] (constraint-row space).  [work] as in {!ftran}. *)
