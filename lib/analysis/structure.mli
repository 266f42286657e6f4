(** Structural analysis (S-codes) of {!Vpart_lp.Lp.std} constraint
    matrices: the groundwork for sparse-LU kernels and symmetry-aware
    branch-and-bound.

    {!profile} computes a structural summary once; {!lint_profile}
    translates it into diagnostics:

    - [S001] nonzero density (info; warning when the matrix is dense
      enough that sparse kernels cannot pay off)
    - [S002] bandwidth (max/mean column-index span per row)
    - [S003] block decomposition — connected components of the row/column
      bipartite graph, i.e. independent subproblems solvable separately
      (the coarse version of a Dulmage–Mendelsohn decomposition)
    - [S004] Markowitz-style symbolic fill-in estimate predicting
      sparse-LU viability (warning when heavy fill-in is predicted)
    - [S005] candidate symmetry orbits among integer columns, detected by
      color refinement on the bipartite variable/row graph with
      coefficient edge labels — interchangeable columns explain B&B
      branching blow-up.  A diagnosis only: the QP solver pins the
      site symmetry of its layout model itself whenever no transaction
      is pre-assigned, so the orbits left on a pinned model are the ones
      it does not remove.

    Orbit detection is a {e necessary} condition (color refinement never
    splits a true orbit but may fail to split asymmetric columns), hence
    "candidate". *)

type block = { b_rows : int; b_cols : int; b_nnz : int }
(** One connected component of the row/column bipartite graph. *)

type profile = {
  p_nrows : int;
  p_ncols : int;
  p_nnz : int;              (** finite nonzero coefficients *)
  p_density : float;        (** nnz / (nrows * ncols) *)
  p_max_row_nnz : int;
  p_bandwidth : int;        (** max column-index span within a row *)
  p_avg_bandwidth : float;  (** mean span over nonempty rows *)
  p_blocks : block list;    (** independent subproblems, largest first *)
  p_fill_in : int option;   (** predicted new nonzeros in a sparse LU of
                                the full pattern; [None] when the matrix
                                exceeds {!fill_in_caps} *)
  p_fill_capped : bool;     (** the fill simulation hit its work cap;
                                [p_fill_in] is then a lower bound *)
  p_orbits : int list;      (** candidate symmetry orbit sizes ([>= 2])
                                among integer columns, largest first *)
}

val fill_in_caps : int * int
(** [(max_rows, max_nnz)] beyond which the fill-in simulation is skipped. *)

val dense_density_limit : float
(** Density above which [S001] becomes a warning (default [0.25]). *)

val fill_ratio_limit : float
(** Predicted fill-in / nnz ratio above which [S004] becomes a warning
    (default [10.0]). *)

val profile : Lp.std -> profile
(** Compute the structural profile.  Pure; cost is roughly
    O(nnz · log nnz) plus the (capped) fill-in simulation. *)

val lint_profile : profile -> Diagnostic.t list
(** Diagnostics derived from a profile (codes [S001]–[S005]). *)

val lint : Lp.std -> Diagnostic.t list
(** [lint std = lint_profile (profile std)]. *)
