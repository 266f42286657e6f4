(** Human-readable reports for partitionings and solver runs. *)

val pp_partitioning :
  Instance.t -> Format.formatter -> Partitioning.t -> unit
(** Table-4-style layout: one block per site with the transactions homed
    there followed by the attributes stored there (qualified, sorted). *)

val pp_solution_summary :
  Instance.t -> p:float -> lambda:float -> Format.formatter -> Partitioning.t -> unit
(** Cost summary: objective (4), read/write/transfer breakdown, per-site
    work, replication statistics, average row-width reduction per table. *)

val pp_diagnostics :
  Format.formatter -> Vpart_analysis.Diagnostic.t list -> unit
(** Diagnostics section: every finding (sorted, errors first) plus a
    severity-count summary; ["diagnostics: none"] when the list is empty.
    Used by the CLI's [check] subcommand and after solver runs. *)

val pp_sa_search : Format.formatter -> Sa_solver.search_stats -> unit
(** Two-line summary of an annealing run's search statistics: move /
    acceptance counts and the cooling trajectory (epochs, τ₀ → final τ). *)

val pp_sa_chains : Format.formatter -> Sa_solver.search_stats array -> unit
(** One line per portfolio chain ([Sa_solver.result.chains]): moves,
    acceptance, epochs and temperature trajectory.  Meant for
    [restarts > 1] runs; prints a single line for a one-chain array. *)

val pp_mip_kernel : Format.formatter -> Qp_solver.result -> unit
(** One-line LP-kernel summary of a QP/MIP solve: node and simplex
    iteration counts plus the basis-update statistics (Forrest–Tomlin
    updates, row-eta applications and sparse LU factorizations), so how
    many pivots each factorization served is visible in run output.  On a
    {!Qp_solver.Too_large} refusal it prints the row count next to the
    configured [max_rows] cap instead. *)

val pp_certificate :
  Format.formatter -> Vpart_analysis.Diagnostic.t list option -> unit
(** One-line certificate verdict for a solver's [certificate] field:
    not requested / all claims verified / verified with warnings /
    FAILED, with severity counts and the distinct [C]-codes involved. *)

val row_width_reduction : Instance.t -> Partitioning.t -> (string * int * float) list
(** Per table: name, original row width, and the average width of its
    fractions across sites holding any of it (smaller = narrower rows,
    the effect the paper's introduction motivates). *)
