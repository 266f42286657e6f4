(** Static analysis over MIP models in frozen standard form ({!Lp.std}).

    This plays the role an industrial solver's model-diagnostic layer
    would: since the whole solver substrate is in-repo, nothing else
    rejects a mis-built model before branch-and-bound burns time on it.
    The checks are read-only — nothing is simplified or rewritten;
    findings are returned as {!Diagnostic.t} values.

    Diagnostic codes (see [docs/ANALYSIS.md] for examples):

    - [M001] {e error} — variable with [lb > ub] (trivially infeasible);
    - [M002] {e error} — empty row that cannot be satisfied
      (e.g. [0 = 1], [0 <= -1]);
    - [M003] {e warning} — empty row that is trivially satisfied;
    - [M004] {e warning} — duplicate/parallel row: proportional to an
      earlier row and implied by it (redundant);
    - [M005] {e error} — parallel rows that are mutually exclusive
      (e.g. [x = 1] and [x = 2]);
    - [M006] {e error} — row provably infeasible under interval
      (activity-bound) propagation;
    - [M007] {e warning} — row provably redundant under interval
      propagation (satisfied by every point within bounds);
    - [M008] {e warning} — dangling variable: appears in no row and has a
      zero objective coefficient;
    - [M009] {e warning} — integer variable with a fractional finite bound;
    - [M010] {e warning} — numerical conditioning: the ratio between the
      largest and smallest nonzero constraint-coefficient magnitudes
      exceeds [1e9];
    - [M011] {e info} — variable fixed by its bounds ([lb = ub]);
    - [M012] {e error} — non-finite data: NaN/infinite coefficient,
      objective term or right-hand side, or NaN/inverted-infinite bound. *)

val lint : ?var_name:(int -> string) -> Lp.std -> Diagnostic.t list
(** Run every check.  [var_name] is used in messages (default ["x<j>"]). *)

val lint_model : Lp.model -> Diagnostic.t list
(** [lint] on [Lp.standardize model], with the model's variable names. *)

val assert_clean : ?var_name:(int -> string) -> Lp.std -> Diagnostic.t list
(** Like {!lint} but fails fast: raises {!Diagnostic.Errors} with the
    Error-level findings if any are present; otherwise returns the
    remaining (warning/info) findings.  This is the gate the MIP-building
    solvers ([Qp_solver], [Iterative_solver]) run before solving. *)
