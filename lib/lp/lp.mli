(** Mixed-integer linear programming modeling layer.

    This is the modeling substrate under the paper's linearized quadratic
    program (7): the sealed environment has no LP solver bindings, so the
    model representation, the simplex solver ({!Vpart_simplex.Simplex}) and
    the branch-and-bound solver ({!Vpart_mip.Mip}) are all implemented here.

    A {!model} is a growable set of bounded (optionally integer) variables,
    sparse linear constraints and a linear objective.  Solvers consume the
    frozen array form produced by {!standardize}. *)

type var = int
(** Variable handle: the dense index assigned by {!add_var} (0-based). *)

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq
(** Constraint comparators: [row <= rhs], [row >= rhs], [row = rhs]. *)

type model

val create : ?name:string -> unit -> model
(** Fresh empty model with [Minimize] objective 0. *)

val name : model -> string

val add_var :
  model -> ?name:string -> ?lb:float -> ?ub:float -> ?integer:bool -> unit -> var
(** Add a variable. Defaults: [lb = 0.], [ub = infinity], [integer = false].
    Use [lb = neg_infinity] for free variables. *)

val binary : model -> ?name:string -> unit -> var
(** Shorthand for an integer variable with bounds [0, 1]. *)

val add_constr : model -> (float * var) list -> cmp -> float -> unit
(** [add_constr m terms cmp rhs] adds the constraint [Σ coef·var cmp rhs].
    Repeated variables in [terms] are summed in list order, from [0.].
    Zero coefficients are dropped.  @raise Invalid_argument on an
    out-of-range variable, a non-finite coefficient or right-hand side,
    or a row whose support normalizes to empty while the comparison is
    unsatisfiable (e.g. [0·x = 1]). *)

val set_objective : model -> sense -> ?constant:float -> (float * var) list -> unit
(** Replace the objective.  Terms behave as in {!add_constr}. *)

val num_vars : model -> int
val num_constrs : model -> int

val var_name : model -> var -> string
(** The name given at creation, or ["x<i>"] if none. *)

(** {1 Frozen standard form}

    The array form consumed by the solvers: [Minimize Σ obj·x] subject to
    sparse rows and variable bounds.  A [Maximize] model is negated during
    standardization; callers should re-negate reported objective values via
    {!restore_objective}. *)

type std = {
  std_name : string;
  ncols : int;
  nrows : int;
  obj : float array;             (** minimization costs, length [ncols] *)
  obj_const : float;
  lb : float array;
  ub : float array;
  integer : bool array;
  row_idx : int array array;     (** per-row column indices, strictly increasing *)
  row_val : float array array;   (** matching coefficients *)
  rhs : float array;
  row_cmp : cmp array;
  maximize : bool;               (** true if the source model maximized *)
}

val standardize : model -> std
(** Freeze the model.  The result shares no mutable state with [model]. *)

val restore_objective : std -> float -> float
(** Map a minimization objective value back to the source model's sense. *)

(** {1 Feasibility checking}

    {!feasibility_violations} is the detailed check: it names every
    violated bound/row so error messages (and the {!Vpart_certify}
    certificates built on them) can say {e what} failed and by how much.
    {!check_feasible} is the boolean wrapper kept for the hot paths. *)

type violation =
  | Wrong_length of { expected : int; got : int }
  | Non_finite of { var : int; value : float }
      (** NaN or infinite coordinate *)
  | Bound_violation of { var : int; value : float; lb : float; ub : float;
                         excess : float }
      (** [value] outside [[lb, ub]] by [excess > 0] *)
  | Not_integral of { var : int; value : float }
  | Row_violation of { row : int; activity : float; cmp : cmp; rhs : float;
                       excess : float }
      (** row activity fails [activity cmp rhs] by [excess > 0] *)

val feasibility_violations : ?tol:float -> std -> float array -> violation list
(** All violations of bounds, rows and integrality of [x] (structural
    variables only) within absolute tolerance [tol] (default [1e-6]), in
    variable-then-row order.  A [Wrong_length] finding short-circuits the
    rest.  Empty list = feasible. *)

val pp_violation : ?var_name:(var -> string) -> unit ->
  Format.formatter -> violation -> unit
(** One-line rendering naming the offending variable/row. *)

val check_feasible : ?tol:float -> std -> float array -> bool
(** [check_feasible std x] is [feasibility_violations std x = []]: tests
    bounds, every row and integrality of [x] (structural variables only)
    within absolute tolerance [tol] (default [1e-6]).  Points containing
    non-finite coordinates are always infeasible.  Used by
    branch-and-bound to vet heuristic points. *)

val eval_objective : std -> float array -> float
(** Minimization objective (including constant) of a structural point. *)

val to_mps : model -> string
(** Export in fixed MPS format (for debugging against external solvers). *)

val pp_stats : Format.formatter -> model -> unit
(** One-line summary: name, variable/constraint/nonzero counts. *)
