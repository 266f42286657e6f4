(* Bounded-variable revised simplex over a sparse LU basis factorization.

   Variable indexing: 0..n-1 are the structural variables of the Lp.std
   model, n..n+m-1 are slacks (one per row, turning every row into an
   equality: a_i x + s_i = b_i with s_i >= 0 for Le, <= 0 for Ge, = 0 for
   Eq).  Infinite bounds are patched to +-big so that every variable is
   boxed; a structural variable resting on a patched bound at optimality is
   reported as Unbounded.

   Basis: a sparse LU factorization (Markowitz pivoting, {!Sparse_lu})
   kept current by a Forrest-Tomlin update at every pivot, and
   refactorized when the updates have grown it ([refactor_due]) or have
   lost accuracy; no dense inverse exists, so memory and ftran/btran cost
   scale with the factor nonzeros instead of m².  A basis that defeats
   the factorization reports Numerical.  Pricing is dual
   devex, with Bland's rule after a run of degenerate pivots.  The dual
   ratio test flips bounds ([ratio_test]), and a reoptimize with a cutoff
   stops at a verified Lagrangian bound ([lagrangian_bound]); the
   interface documents both.

   Invariant maintained by the dual method: the current basis is dual
   feasible (every nonbasic at lower has reduced cost >= -tol, at upper
   <= +tol).  Reduced costs are independent of bounds, so bound changes
   between reoptimize calls preserve the invariant -- the warm-start
   property branch-and-bound relies on. *)

type status =
  | Optimal | Infeasible | Unbounded | Iter_limit | Time_limit | Numerical | Cutoff

let string_of_status = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iter_limit -> "iteration limit"
  | Time_limit -> "time limit"
  | Numerical -> "numerical failure"
  | Cutoff -> "cutoff"

let big = 1e10
let unbounded_threshold = 1e9
let pivot_tol = 1e-8
let feas_tol = 1e-7
let dual_tol = 1e-7
let degen_limit = 60
let drift_tol = 1e-7

(* Warm-reoptimize guards: fall back to a full compute_xb/recompute_d when
   too many bounds changed (the ftran replay would cost more than the
   full passes), when a patched infinite bound is involved (cancellation
   on the 1e10 box), or after this many consecutive warm starts (bounds
   the xb drift a short node solve never resyncs). *)
let warm_max_pending = 8
let warm_max_delta = 1e7
let warm_limit = 64

(* Refactorization triggers: the updates since the last factorization
   reach [max_updates], or the factors (U and the row etas) have grown
   past [growth_limit] times their nonzeros when fresh.  A failed cutoff
   check is repeated after [cutoff_recheck] more pivots. *)
let max_updates = 200
let growth_limit = 2.
let cutoff_recheck = 32

type refactor_reason = Start | Growth | Ceiling | Drift | Recovery

let string_of_reason = function
  | Start -> "start"
  | Growth -> "growth"
  | Ceiling -> "ceiling"
  | Drift -> "drift"
  | Recovery -> "recovery"

type t = {
  n : int;                        (* structural variables *)
  m : int;                        (* rows = basis size *)
  nn : int;                       (* n + m *)
  cost : Vec.t;                   (* nn; slacks cost 0 *)
  lb : Vec.t;                     (* nn, patched *)
  ub : Vec.t;
  lb_patched : bool array;
  ub_patched : bool array;
  col_idx : int array array;      (* nn: structural, then slack unit columns *)
  col_val : float array array;
  row_idx : int array array;      (* row-major mirror, for scatter pricing *)
  row_val : float array array;
  b : Vec.t;
  basis : int array;              (* m: variable basic at each position *)
  loc : int array;                (* nn: -1 at lower, -2 at upper, pos >= 0 basic *)
  lu : Sparse_lu.t;               (* the basis factors, updated in place *)
  mutable lu_inaccurate : bool;   (* an update failed its accuracy check *)
  xb : Vec.t;                     (* m basic values *)
  viol : Vec.t;                   (* m: bound violation of each basic value *)
  d : Vec.t;                      (* nn reduced costs (valid for nonbasic) *)
  alpha : Vec.t;                  (* nn scratch: pivot row in nonbasic space *)
  amark : bool array;             (* nn scratch: alpha scatter membership *)
  atouch : int array;             (* nn scratch: scattered positions *)
  mutable natouch : int;
  movable : int array;            (* nn scratch: ratio-test candidates *)
  mutable nmovable : int;
  bp : int array;                 (* nn scratch: eligible breakpoints *)
  bp_ratio : Vec.t;               (* nn scratch: their dual ratios *)
  flips : int array;              (* nn scratch: the pivot's bound flips *)
  mutable nflips : int;
  dw : Vec.t;                     (* m devex reference weights (rows) *)
  wscratch : Vec.t;               (* m: ftran result, zero outside wlist *)
  wlist : int array;              (* m: its nonzero rows *)
  mutable nw : int;
  rowmark : bool array;           (* m scratch: list membership, all false between uses *)
  zscratch : Vec.t;               (* m scratch: compute_xb right-hand side *)
  zlist : int array;              (* m scratch: full-pattern solve lists *)
  duscratch : Vec.t;              (* m scratch: compute_duals btran *)
  eta_base : int;                 (* [lu]'s row-eta applications at create *)
  mutable lu_updates : int;       (* basis updates performed *)
  mutable updates_max : int;      (* high-water updates on one factorization *)
  rho : Vec.t;                    (* m: pivot row e_r B^-1, zero outside rlist *)
  rlist : int array;              (* m: its nonzero rows *)
  mutable nrho : int;
  xb_save : Vec.t;                (* m scratch: drift detection *)
  mutable total_iters : int;
  mutable total_refactors : int;
  mutable drift_rebuilds : int;    (* refactors forced by resync drift *)
  mutable recovery_rebuilds : int; (* refactors forced by rejected pivots *)
  (* pivot counters; the seconds accumulate only while Obs is on *)
  mutable pricing_seconds : float;
  mutable btran_seconds : float;
  mutable ftran_seconds : float;
  mutable ftran_nnz : int;
  mutable btran_nnz : int;
  mutable bound_flips : int;
  mutable bland : bool;
  mutable degen_count : int;
  mutable infeas_ray : float array option;
      (* row of B^-1 at the moment the dual method proved primal
         infeasibility: a Farkas-style multiplier vector over the rows *)
  mutable warm : bool;
      (* xb and d are current for the basis and bounds: the last
         reoptimize ended verified Optimal and only set_bounds calls
         happened since.  Lets the next reoptimize skip the full
         compute_xb/recompute_d entry passes. *)
  mutable pending_bounds : (int * float) list;
      (* (j, new resting value - old) for nonbasic variables whose
         bound changed while [warm]; replayed as ftran updates of xb *)
  mutable npending : int;
  mutable warm_solves : int;      (* consecutive warm starts since full resync *)
  mutable run_obj : float;
      (* objective of the current basic point, kept by the dual pivots and
         recomputed whenever xb is: at a dual-feasible basis it is the
         dual objective, the value the cutoff test watches *)
  mutable cutoff_bound : float option;
      (* the verified Lagrangian bound of the last Cutoff *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let patch_lb v = if v = neg_infinity then -.big else v
let patch_ub v = if v = infinity then big else v

(* Column-major copy of the constraint matrix, followed by the unit
   columns of the m slacks: the column set the basis is factored from. *)
let col_major (std : Lp.std) =
  let n = std.Lp.ncols and m = std.Lp.nrows in
  let counts = Array.make n 0 in
  for r = 0 to m - 1 do
    Array.iter (fun j -> counts.(j) <- counts.(j) + 1) std.Lp.row_idx.(r)
  done;
  let one = [| 1. |] in
  let idx =
    Array.init (n + m) (fun j ->
        if j < n then Array.make counts.(j) 0 else [| j - n |])
  in
  let value =
    Array.init (n + m) (fun j -> if j < n then Array.make counts.(j) 0. else one)
  in
  let fill = Array.make n 0 in
  for r = 0 to m - 1 do
    let ri = std.Lp.row_idx.(r) and rv = std.Lp.row_val.(r) in
    for k = 0 to Array.length ri - 1 do
      let j = ri.(k) in
      idx.(j).(fill.(j)) <- r;
      value.(j).(fill.(j)) <- rv.(k);
      fill.(j) <- fill.(j) + 1
    done
  done;
  (idx, value)

(* Domain-local arena for the float payload of a solver instance.  Batch
   solving creates one Simplex.t per request; with a workspace the
   per-create float vectors (6·nn + 9·m doubles — the dominant
   allocation) are carved as views out of a single retained buffer that
   is zeroed and re-carved on every [create], so steady-state solving
   allocates O(1) float payload per request.  The instance's basis
   factors are kept in the workspace's factor storage too, whose arrays
   (and the room U's updates grow into) the next instance inherits.
   Both only grow (to the largest model seen), and because every carved
   view starts zero-filled exactly like a fresh [Vec.create], and every
   factorization overwrites what it reads, a pooled instance is
   bit-identical to a fresh one.  A workspace must back at most one live
   instance: the next [create] from the same workspace re-carves the
   buffer and the factors under the previous instance.  [copy] never
   draws from a workspace — copies always allocate fresh. *)
module Workspace = struct
  type t = { mutable buf : Vec.t; lu : Sparse_lu.t }

  let create () = { buf = Vec.create 0; lu = Sparse_lu.identity 0 }

  (* Total float demand of [Simplex.create] for an n×m model. *)
  let demand ~nn ~m = (6 * nn) + (9 * m)
end

(* The factors of the all-slack start basis, the identity, in [lu]. *)
let start_factors lu m =
  Obs.with_span "simplex.lu_refactor"
    ~attrs:
      [ ("m", Obs.Int m); ("updates", Obs.Int 0);
        ("reason", Obs.Str (string_of_reason Start)) ]
  @@ fun () -> Sparse_lu.set_identity lu m

let create ?workspace (std : Lp.std) =
  let n = std.Lp.ncols and m = std.Lp.nrows in
  let nn = n + m in
  let alloc =
    match workspace with
    | None -> Vec.create
    | Some ws ->
      let total = Workspace.demand ~nn ~m in
      if Vec.length ws.Workspace.buf < total then
        ws.Workspace.buf <- Vec.create total
      else Vec.fill (Vec.sub ws.Workspace.buf 0 total) 0.;
      let off = ref 0 in
      fun len ->
        let v = Vec.sub ws.Workspace.buf !off len in
        off := !off + len;
        v
  in
  let cost = alloc nn in
  for j = 0 to n - 1 do
    cost.{j} <- std.Lp.obj.(j)
  done;
  let lb = alloc nn and ub = alloc nn in
  let lb_patched = Array.make nn false and ub_patched = Array.make nn false in
  for j = 0 to n - 1 do
    lb_patched.(j) <- std.Lp.lb.(j) = neg_infinity;
    ub_patched.(j) <- std.Lp.ub.(j) = infinity;
    lb.{j} <- patch_lb std.Lp.lb.(j);
    ub.{j} <- patch_ub std.Lp.ub.(j)
  done;
  for i = 0 to m - 1 do
    let j = n + i in
    (match std.Lp.row_cmp.(i) with
     | Lp.Le -> lb.{j} <- 0.; ub.{j} <- big; ub_patched.(j) <- true
     | Lp.Ge -> lb.{j} <- -.big; ub.{j} <- 0.; lb_patched.(j) <- true
     | Lp.Eq -> lb.{j} <- 0.; ub.{j} <- 0.)
  done;
  (* Dual-feasible nonbasic placement for structurals. *)
  let loc = Array.make nn (-1) in
  for j = 0 to n - 1 do
    if cost.{j} > 0. then loc.(j) <- -1
    else if cost.{j} < 0. then loc.(j) <- -2
    else if not lb_patched.(j) then loc.(j) <- -1
    else if not ub_patched.(j) then loc.(j) <- -2
    else loc.(j) <- -1
  done;
  let basis = Array.init m (fun i -> n + i) in
  for i = 0 to m - 1 do
    loc.(n + i) <- i
  done;
  let d = alloc nn in
  Vec.blit cost d;
  let b = alloc m in
  for i = 0 to m - 1 do
    b.{i} <- std.Lp.rhs.(i)
  done;
  let dw = alloc m in
  Vec.fill dw 1.;
  let col_idx, col_val = col_major std in
  let lu =
    match workspace with
    | Some ws -> ws.Workspace.lu
    | None -> Sparse_lu.identity 0
  in
  start_factors lu m;
  {
    n; m; nn; cost; lb; ub; lb_patched; ub_patched;
    col_idx;
    col_val;
    row_idx = std.Lp.row_idx;
    row_val = std.Lp.row_val;
    b;
    basis; loc;
    lu;
    lu_inaccurate = false;
    xb = alloc m;
    viol = alloc m;
    d;
    alpha = alloc nn;
    amark = Array.make nn false;
    atouch = Array.make nn 0;
    natouch = 0;
    movable = Array.make nn 0;
    nmovable = 0;
    bp = Array.make nn 0;
    bp_ratio = alloc nn;
    flips = Array.make nn 0;
    nflips = 0;
    dw;
    wscratch = alloc m;
    wlist = Array.make m 0;
    nw = 0;
    rowmark = Array.make m false;
    zscratch = alloc m;
    zlist = Array.make m 0;
    duscratch = alloc m;
    eta_base = Sparse_lu.row_eta_applications lu;
    lu_updates = 0;
    updates_max = 0;
    rho = alloc m;
    rlist = Array.make m 0;
    nrho = 0;
    xb_save = alloc m;
    total_iters = 0;
    total_refactors = 1;
    drift_rebuilds = 0;
    recovery_rebuilds = 0;
    pricing_seconds = 0.;
    btran_seconds = 0.;
    ftran_seconds = 0.;
    ftran_nnz = 0;
    btran_nnz = 0;
    bound_flips = 0;
    bland = false;
    degen_count = 0;
    infeas_ray = None;
    warm = false;
    pending_bounds = [];
    npending = 0;
    warm_solves = 0;
    run_obj = 0.;
    cutoff_bound = None;
  }

(* Independent snapshot for a worker domain.  [cost], [b], [col_idx],
   [col_val], [row_idx] and [row_val] are write-once after [create]
   (verified: no mutation site in this module), so the copy shares them.
   Everything the solve mutates -- bounds, basis, values, reduced costs,
   the factors (which every pivot updates in place), scratch, counters
   -- is deep-copied (the factors up to their used length) so the copy
   can reoptimize concurrently with (or instead of) the original.  LU
   working storage belongs to the solving domain, not to an instance. *)
let copy t =
  {
    t with
    lb = Vec.copy t.lb;
    ub = Vec.copy t.ub;
    lb_patched = Array.copy t.lb_patched;
    ub_patched = Array.copy t.ub_patched;
    basis = Array.copy t.basis;
    loc = Array.copy t.loc;
    xb = Vec.copy t.xb;
    viol = Vec.copy t.viol;
    d = Vec.copy t.d;
    alpha = Vec.copy t.alpha;
    amark = Array.copy t.amark;
    atouch = Array.copy t.atouch;
    movable = Array.copy t.movable;
    bp = Array.copy t.bp;
    bp_ratio = Vec.copy t.bp_ratio;
    flips = Array.copy t.flips;
    dw = Vec.copy t.dw;
    wscratch = Vec.copy t.wscratch;
    wlist = Array.copy t.wlist;
    rowmark = Array.copy t.rowmark;
    zscratch = Vec.copy t.zscratch;
    zlist = Array.copy t.zlist;
    duscratch = Vec.copy t.duscratch;
    lu = Sparse_lu.copy t.lu;
    rho = Vec.copy t.rho;
    rlist = Array.copy t.rlist;
    xb_save = Vec.copy t.xb_save;
    infeas_ray = Option.map Array.copy t.infeas_ray;
  }

let iterations t = t.total_iters
let refactorizations t = t.total_refactors
let drift_rebuilds t = t.drift_rebuilds
let recovery_rebuilds t = t.recovery_rebuilds
let pivot_counters t =
  [
    ("simplex.pricing_seconds", t.pricing_seconds);
    ("simplex.btran_seconds", t.btran_seconds);
    ("simplex.ftran_seconds", t.ftran_seconds);
    ("simplex.ftran_nnz", float_of_int t.ftran_nnz);
    ("simplex.btran_nnz", float_of_int t.btran_nnz);
    ("simplex.bound_flips", float_of_int t.bound_flips);
    ("simplex.lu_updates", float_of_int t.lu_updates);
  ]
let lu_updates t = t.lu_updates
let eta_applications t = Sparse_lu.row_eta_applications t.lu - t.eta_base
let max_updates_per_factor t = t.updates_max
let lu_nnz t = Sparse_lu.nnz t.lu

(* Value of a nonbasic variable (forward declaration of the one below;
   needed here so set_bounds can record resting-value deltas). *)
let nb_value_loc t j = if t.loc.(j) = -1 then t.lb.{j} else t.ub.{j}

let set_bounds t j ~lb ~ub =
  if j < 0 || j >= t.n then invalid_arg "Simplex.set_bounds: out of range";
  if lb > ub then invalid_arg "Simplex.set_bounds: lb > ub";
  let old_v = if t.warm && t.loc.(j) < 0 then nb_value_loc t j else 0. in
  t.lb_patched.(j) <- lb = neg_infinity;
  t.ub_patched.(j) <- ub = infinity;
  t.lb.{j} <- patch_lb lb;
  t.ub.{j} <- patch_ub ub;
  (* Reduced costs are bound-independent and a basic variable's value does
     not move when its box does, so the only state a bound change touches
     is the resting value of a nonbasic variable: record the delta for an
     ftran replay at the next reoptimize.  Anything outsized (patched
     bounds, long replay lists) drops back to the cold path. *)
  if t.warm && t.loc.(j) < 0 then begin
    let dv = nb_value_loc t j -. old_v in
    if dv <> 0. then begin
      if Float.abs dv > warm_max_delta || t.npending >= warm_max_pending then
        t.warm <- false
      else begin
        t.pending_bounds <- (j, dv) :: t.pending_bounds;
        t.npending <- t.npending + 1
      end
    end
  end

let bounds t j =
  if j < 0 || j >= t.n then invalid_arg "Simplex.bounds: out of range";
  (t.lb.{j}, t.ub.{j})

(* ------------------------------------------------------------------ *)
(* Core linear algebra                                                 *)
(* ------------------------------------------------------------------ *)

(* rho := e_r B^-1, by a sparse btran of e_r: the LU solves visit only
   the reach of the unit vector, and the row etas only those whose own
   entry is reached.  The btran keeps the part of itself the basis
   update at row [r] needs.  The nonzero rows of rho go to [rlist]. *)
let compute_rho t r =
  let u = t.rho and nz = t.rlist in
  for e = 0 to t.nrho - 1 do
    u.{nz.(e)} <- 0.
  done;
  u.{r} <- 1.;
  nz.(0) <- r;
  let n = Sparse_lu.btran ~keep:true t.lu u nz 1 in
  t.nrho <- n;
  t.btran_nnz <- t.btran_nnz + n

(* Value of a nonbasic variable. *)
let nb_value t j = if t.loc.(j) = -1 then t.lb.{j} else t.ub.{j}

let var_value t j =
  let k = t.loc.(j) in
  if k >= 0 then t.xb.{k} else nb_value t j

(* The bound violation of the basic value in row i, 0 when within
   tolerance: what [select_leaving] ranks rows by.  [viol] holds it for
   every row; whatever changes a row's basic value, basic variable or
   that variable's bounds refreshes the row (compute_xb and the dual loop
   entry all of them, a dual pivot the rows it moved). *)
let refresh_viol t i =
  let p = t.basis.(i) in
  let v = t.xb.{i} in
  let tol_lo = feas_tol *. (1. +. Float.abs t.lb.{p})
  and tol_hi = feas_tol *. (1. +. Float.abs t.ub.{p}) in
  t.viol.{i} <-
    (if v < t.lb.{p} -. tol_lo then t.lb.{p} -. v
     else if v > t.ub.{p} +. tol_hi then v -. t.ub.{p}
     else 0.)

let refresh_all_viol t =
  for i = 0 to t.m - 1 do
    refresh_viol t i
  done

(* The list of all m rows, for the solves whose right-hand side is
   dense. *)
let full_list t =
  let nz = t.zlist in
  for i = 0 to t.m - 1 do
    nz.(i) <- i
  done;
  nz

(* xb := B^-1 (b - N x_N). *)
let compute_xb t =
  let z = t.zscratch in
  Vec.blit t.b z;
  for j = 0 to t.nn - 1 do
    if t.loc.(j) < 0 then begin
      let v = nb_value t j in
      if v <> 0. then begin
        let ci = t.col_idx.(j) and cv = t.col_val.(j) in
        for k = 0 to Array.length ci - 1 do
          z.{ci.(k)} <- z.{ci.(k)} -. (cv.(k) *. v)
        done
      end
    end
  done;
  ignore (Sparse_lu.ftran t.lu z (full_list t) t.m);
  Vec.blit z t.xb;
  refresh_all_viol t

(* w := B^-1 A_j (ftran of column j) into t.wscratch, its nonzero rows
   into t.wlist.  With [keep], the column is the entering one of a
   pivot, whose basis update needs its spike. *)
let ftran ?keep t j =
  let w = t.wscratch and nz = t.wlist in
  for e = 0 to t.nw - 1 do
    w.{nz.(e)} <- 0.
  done;
  let ci = t.col_idx.(j) and cv = t.col_val.(j) in
  for k = 0 to Array.length ci - 1 do
    w.{ci.(k)} <- cv.(k);
    nz.(k) <- ci.(k)
  done;
  let n = Sparse_lu.ftran ?keep t.lu w nz (Array.length ci) in
  t.nw <- n;
  t.ftran_nnz <- t.ftran_nnz + n;
  w

(* Fresh duals y = c_B B^-1, by a btran of c_B.  The returned vector is
   scratch owned by [t] (clobbered by the next call) — public accessors
   copy. *)
let compute_duals t =
  let u = t.duscratch in
  for k = 0 to t.m - 1 do
    u.{k} <- t.cost.{t.basis.(k)}
  done;
  ignore (Sparse_lu.btran t.lu u (full_list t) t.m);
  u

(* Fresh reduced costs: d_j = c_j - y . A_j with y = c_B B^-1. *)
let recompute_d t =
  let y = compute_duals t in
  for j = 0 to t.nn - 1 do
    if t.loc.(j) >= 0 then t.d.{j} <- 0.
    else begin
      let ci = t.col_idx.(j) and cv = t.col_val.(j) in
      let acc = ref t.cost.{j} in
      for k = 0 to Array.length ci - 1 do
        acc := !acc -. (y.{ci.(k)} *. cv.(k))
      done;
      t.d.{j} <- !acc
    end
  done

let duals t = Vec.to_array (compute_duals t)

let farkas_ray t = t.infeas_ray

let cutoff_bound t = t.cutoff_bound

(* The Lagrangian bound of fresh duals over the current box.  y = c_B B^-1,
   with each row dual clamped to the sign its slack's box allows (y_i <= 0
   on a <= row, >= 0 on a >= row), so the slacks contribute nothing; then
   L(y) = y.b + sum_j min over [l_j, u_j] of (c_j - y.A_j) x_j.  A patched
   bound is read as infinite: a reduced cost that would rest on one makes
   the bound -infinity.  Every y gives a valid lower bound on the LP over
   the box, so L(y) >= cutoff proves the node's LP cannot go below it. *)
let lagrangian_bound t =
  let y = compute_duals t in
  let acc = ref 0. in
  for i = 0 to t.m - 1 do
    let s = t.n + i in
    let yi =
      if t.ub_patched.(s) then Float.min y.{i} 0.
      else if t.lb_patched.(s) then Float.max y.{i} 0.
      else y.{i}
    in
    y.{i} <- yi;
    acc := !acc +. (yi *. t.b.{i})
  done;
  for j = 0 to t.n - 1 do
    let ci = t.col_idx.(j) and cv = t.col_val.(j) in
    let dj = ref t.cost.{j} in
    for k = 0 to Array.length ci - 1 do
      dj := !dj -. (y.{ci.(k)} *. cv.(k))
    done;
    let dj = !dj in
    if dj > 0. then
      acc := if t.lb_patched.(j) then neg_infinity else !acc +. (dj *. t.lb.{j})
    else if dj < 0. then
      acc := if t.ub_patched.(j) then neg_infinity else !acc +. (dj *. t.ub.{j})
  done;
  !acc

let reduced_costs t =
  let y = compute_duals t in
  Array.init t.n (fun j ->
      let ci = t.col_idx.(j) and cv = t.col_val.(j) in
      let acc = ref t.cost.{j} in
      for k = 0 to Array.length ci - 1 do
        acc := !acc -. (y.{ci.(k)} *. cv.(k))
      done;
      !acc)

(* Refactorization: factor the current basis columns with
   {!Sparse_lu.refactor}, in the instance's factor storage, dropping the
   updates.  A singular basis returns false (the callers report
   Numerical) and leaves the updated factors as they were. *)
let refactor t reason =
  Obs.with_span "simplex.lu_refactor"
    ~attrs:
      [ ("m", Obs.Int t.m); ("updates", Obs.Int (Sparse_lu.updates t.lu));
        ("reason", Obs.Str (string_of_reason reason)) ]
  @@ fun () ->
  let ok = Sparse_lu.refactor t.lu t.col_idx t.col_val t.basis in
  if ok then begin
    t.lu_inaccurate <- false;
    t.total_refactors <- t.total_refactors + 1;
    (match reason with
     | Drift -> t.drift_rebuilds <- t.drift_rebuilds + 1
     | Recovery -> t.recovery_rebuilds <- t.recovery_rebuilds + 1
     | Start | Growth | Ceiling -> ());
    if Obs.enabled () then begin
      let bnnz = ref 0 in
      Array.iter (fun j -> bnnz := !bnnz + Array.length t.col_idx.(j)) t.basis;
      let nnz = Sparse_lu.nnz t.lu in
      Obs.gauge "simplex.lu_nnz" (float_of_int nnz);
      Obs.gauge "simplex.lu_fill" (float_of_int (max 0 (nnz - !bnnz)))
    end
  end;
  ok

(* Update the factors for the pivot that just put the column last
   solved by [ftran ~keep:true] into basis position [r], [alpha] its
   entry at [r].  An update that lost accuracy leaves the factors to be
   rebuilt at the next [refactor_due]. *)
let update t r alpha =
  if not (Sparse_lu.replace t.lu r alpha) then t.lu_inaccurate <- true;
  t.lu_updates <- t.lu_updates + 1;
  let u = Sparse_lu.updates t.lu in
  if u > t.updates_max then t.updates_max <- u

(* Why the factors should be rebuilt before the next pivot, if they
   should: an update that lost accuracy, the update ceiling, or growth
   over the fresh factors' nonzeros. *)
let refactor_due t =
  if t.lu_inaccurate then Some Drift
  else if Sparse_lu.updates t.lu >= max_updates then Some Ceiling
  else if
    float_of_int (Sparse_lu.nnz t.lu)
    > growth_limit *. float_of_int (Sparse_lu.factor_nnz t.lu)
  then Some Growth
  else None

let objective t =
  let acc = ref 0. in
  for j = 0 to t.n - 1 do
    if t.cost.{j} <> 0. then acc := !acc +. (t.cost.{j} *. var_value t j)
  done;
  !acc

let primal_value t j =
  if j < 0 || j >= t.n then invalid_arg "Simplex.primal_value: out of range";
  var_value t j

let primal t = Array.init t.n (fun j -> var_value t j)

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

exception Stop of status

let check_deadline deadline iters =
  match deadline with
  | Some d when iters land 15 = 0 && Obs.Clock.now () > d ->
    raise (Stop Time_limit)
  | _ -> ()

(* Select the leaving row.  Devex: largest violation^2 / reference weight,
   steering toward rows whose pivots have historically moved the iterate
   most per unit violation; under Bland's rule, the violated basic
   variable of smallest index.  Returns None when primal feasible. *)
let select_leaving t =
  let viol = t.viol in
  if not t.bland then begin
    let best = ref (-1) and best_score = ref 0. in
    for i = 0 to t.m - 1 do
      let v = viol.{i} in
      if v > 0. then begin
        let score = v *. v /. t.dw.{i} in
        if score > !best_score then begin
          best := i;
          best_score := score
        end
      end
    done;
    if !best < 0 then None else Some !best
  end
  else begin
    let best = ref (-1) and best_var = ref max_int in
    for i = 0 to t.m - 1 do
      if viol.{i} > 0. && t.basis.(i) < !best_var then begin
        best := i;
        best_var := t.basis.(i)
      end
    done;
    if !best < 0 then None else Some !best
  end

(* Devex weight update after a pivot on row r with entering column w:
   every row moved by the pivot inherits at least the reference weight it
   would get if the entering variable defined the reference framework;
   the pivot row's own weight is rescaled by the pivot element.  When the
   weights blow past 1e12 the reference framework has degraded — restart
   it flat (the classic devex reset).  No weight is above 1e12 outside
   this function, so only the rows the pivot moved ([wlist]) and r can
   trigger the reset. *)
let devex_update t r (w : Vec.t) =
  let wr = w.{r} in
  let gr = t.dw.{r} in
  let mx = ref 1. in
  for e = 0 to t.nw - 1 do
    let i = t.wlist.(e) in
    if i <> r then begin
      let q = w.{i} /. wr in
      let cand = q *. q *. gr in
      if cand > t.dw.{i} then t.dw.{i} <- cand;
      if t.dw.{i} > !mx then mx := t.dw.{i}
    end
  done;
  t.dw.{r} <- Float.max (gr /. (wr *. wr)) 1.;
  if Float.max !mx t.dw.{r} > 1e12 then Vec.fill t.dw 1.

(* Pivot-row pricing: alpha_j = rho . A_j for every column, computed by
   scattering the nonzero entries of rho ([rlist], ascending) through the
   row-major matrix — O(nnz of the touched rows) instead of a gather over
   all nn columns.  Touched positions are recorded for [clear_alpha]; the
   ratio-test candidates go to [movable] in ascending variable order
   (determinism) by one pass over the [amark] flags, which costs less
   than sorting the touched positions. *)
let scatter_price t =
  let rho = t.rho in
  let ntouch = ref 0 in
  for e = 0 to t.nrho - 1 do
    let i = t.rlist.(e) in
    let ri = rho.{i} in
    let rowi = t.row_idx.(i) and rowv = t.row_val.(i) in
    for k = 0 to Array.length rowi - 1 do
      let j = rowi.(k) in
      if not t.amark.(j) then begin
        t.amark.(j) <- true;
        t.alpha.{j} <- 0.;
        t.atouch.(!ntouch) <- j;
        incr ntouch
      end;
      t.alpha.{j} <- t.alpha.{j} +. (ri *. rowv.(k))
    done;
    let sj = t.n + i in
    t.amark.(sj) <- true;
    t.alpha.{sj} <- ri;
    t.atouch.(!ntouch) <- sj;
    incr ntouch
  done;
  t.natouch <- !ntouch;
  let nm = ref 0 in
  for j = 0 to t.nn - 1 do
    if
      t.amark.(j)
      && t.loc.(j) < 0
      && t.ub.{j} -. t.lb.{j} > 1e-12
      && Float.abs t.alpha.{j} > pivot_tol
    then begin
      t.movable.(!nm) <- j;
      incr nm
    end
  done;
  t.nmovable <- !nm

let clear_alpha t =
  for k = 0 to t.natouch - 1 do
    let j = t.atouch.(k) in
    t.alpha.{j} <- 0.;
    t.amark.(j) <- false
  done;
  t.natouch <- 0

(* Bound-flipping (long-step) dual ratio test for leaving row [r], whose
   basic value is [infeas] outside its box on the side [s] (+1 above, -1
   below).  The eligible breakpoints -- nonbasic j whose reduced cost
   d_j moves towards zero as the dual steps, at ratio |d_j| / |alpha_j| --
   are walked in ratio order, taking the largest |alpha_j| among ties
   within 1e-9 (under Bland's rule the smallest index).  The dual
   objective grows along the step with slope [infeas]; passing
   breakpoint j costs |alpha_j| (u_j - l_j) of it, because j must then
   move to its other bound to keep its reduced cost sign-feasible.  Every
   boxed candidate passed while the slope stays positive is recorded in
   [flips]; the candidate at which it would not, or the last one,
   enters.  Bland's rule flips nothing.  Returns the entering variable,
   -1 when no candidate exists. *)
let ratio_test t ~s ~infeas =
  let nb = ref 0 in
  for k = 0 to t.nmovable - 1 do
    let j = t.movable.(k) in
    let a = s *. t.alpha.{j} in
    let ratio =
      if t.loc.(j) = -1 && a > pivot_tol then Float.max t.d.{j} 0. /. a
      else if t.loc.(j) = -2 && a < -.pivot_tol then Float.min t.d.{j} 0. /. a
      else nan
    in
    (* skips the ineligible (nan) and a ratio that is no longer finite *)
    if ratio < infinity then begin
      t.bp.(!nb) <- j;
      t.bp_ratio.{!nb} <- ratio;
      incr nb
    end
  done;
  let nb = !nb in
  let left = ref nb and slope = ref infeas and q = ref (-1) in
  t.nflips <- 0;
  while !q < 0 && !left > 0 do
    (* the next breakpoint: the smallest ratio, then among the ratios
       within 1e-9 of it the largest |alpha| (Bland: the smallest index);
       a passed breakpoint has ratio infinity *)
    let lo = ref infinity in
    for k = 0 to nb - 1 do
      if t.bp_ratio.{k} < !lo then lo := t.bp_ratio.{k}
    done;
    let e = ref (-1) and best_mag = ref 0. in
    for k = 0 to nb - 1 do
      if t.bp_ratio.{k} <= !lo +. 1e-9 then begin
        let j = t.bp.(k) in
        let mag = Float.abs t.alpha.{j} in
        let better =
          !e < 0 || if t.bland then j < t.bp.(!e) else mag > !best_mag
        in
        if better then begin
          e := k;
          best_mag := mag
        end
      end
    done;
    let j = t.bp.(!e) in
    let rest = !slope -. (!best_mag *. (t.ub.{j} -. t.lb.{j})) in
    if
      (not t.bland) && !left > 1 && rest > 0.
      && (not t.lb_patched.(j)) && not t.ub_patched.(j)
    then begin
      t.flips.(t.nflips) <- j;
      t.nflips <- t.nflips + 1;
      slope := rest;
      t.bp_ratio.{!e} <- infinity;
      decr left
    end
    else q := j
  done;
  !q

(* Move every variable in [flips] to its other bound.  The basic values
   follow by one ftran of sum_j A_j dx_j, in the compute_xb scratch, on
   whose nonzeros xb and viol are updated; the running objective gains
   d_j dx_j per flip. *)
let apply_flips t =
  let z = t.zscratch and nz = t.zlist and mark = t.rowmark in
  Vec.fill z 0.;
  let n = ref 0 in
  for k = 0 to t.nflips - 1 do
    let j = t.flips.(k) in
    let dx =
      if t.loc.(j) = -1 then t.ub.{j} -. t.lb.{j} else t.lb.{j} -. t.ub.{j}
    in
    t.loc.(j) <- (if t.loc.(j) = -1 then -2 else -1);
    t.run_obj <- t.run_obj +. (t.d.{j} *. dx);
    let ci = t.col_idx.(j) and cv = t.col_val.(j) in
    for e = 0 to Array.length ci - 1 do
      let i = ci.(e) in
      if not mark.(i) then begin
        mark.(i) <- true;
        nz.(!n) <- i;
        incr n
      end;
      z.{i} <- z.{i} +. (cv.(e) *. dx)
    done
  done;
  for e = 0 to !n - 1 do
    mark.(nz.(e)) <- false
  done;
  let n = Sparse_lu.ftran t.lu z nz !n in
  t.ftran_nnz <- t.ftran_nnz + n;
  for e = 0 to n - 1 do
    let i = nz.(e) in
    t.xb.{i} <- t.xb.{i} -. z.{i};
    refresh_viol t i
  done;
  t.bound_flips <- t.bound_flips + t.nflips

(* One dual pivot.  Returns `Progress, `Feasible (primal feasible reached)
   or `Infeasible.  With [timed], the pricing phase (leaving row, row
   scatter, ratio test), the btran of the pivot row and the ftrans of the
   entering column and of the bound flips are added to [pricing_seconds],
   [btran_seconds] and [ftran_seconds]. *)
let dual_step t ~timed =
  let t0 = if timed then Obs.Clock.now () else 0. in
  match select_leaving t with
  | None ->
    if timed then
      t.pricing_seconds <- t.pricing_seconds +. (Obs.Clock.now () -. t0);
    `Feasible
  | Some r ->
    let p = t.basis.(r) in
    let above = t.xb.{r} > t.ub.{p} in
    let s = if above then 1. else -1. in
    (* Pivot row in nonbasic space: alpha_j = (e_r B^-1) A_j, with the
       row e_r B^-1 from a sparse btran. *)
    let tb = if timed then Obs.Clock.now () else 0. in
    compute_rho t r;
    let tp = if timed then Obs.Clock.now () else 0. in
    if timed then t.btran_seconds <- t.btran_seconds +. (tp -. tb);
    let rho = t.rho in
    scatter_price t;
    let infeas = if above then t.xb.{r} -. t.ub.{p} else t.lb.{p} -. t.xb.{r} in
    let q = ratio_test t ~s ~infeas in
    let t1 = if timed then Obs.Clock.now () else 0. in
    if timed then
      t.pricing_seconds <- t.pricing_seconds +. (tb -. t0) +. (t1 -. tp);
    if q < 0 then begin
      (* No entering column can repair the violated basic variable in row
         [r]: the row [e_r B^-1] of the basis inverse is a Farkas-style
         infeasibility multiplier over the constraint rows (the certifier
         re-derives the contradiction from it against the true, unpatched
         variable boxes).  Entries at roundoff level next to the largest
         are cancellation noise of the btran; a wrong-signed one would
         open its row's slack cone and void the certificate, so they are
         dropped. *)
      let ray = Vec.to_array rho in
      let big = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. ray in
      Array.iteri (fun i v -> if Float.abs v <= 1e-12 *. big then ray.(i) <- 0.) ray;
      t.infeas_ray <- Some ray;
      clear_alpha t;
      `Infeasible
    end
    else begin
      let w = ftran ~keep:true t q in
      if timed then
        t.ftran_seconds <- t.ftran_seconds +. (Obs.Clock.now () -. t1);
      if Float.abs w.{r} < pivot_tol then begin
        clear_alpha t;
        `Numerical_pivot
      end
      else begin
        (* The entering column passed: only now do the flips happen, so a
           rejected pivot leaves every variable where it was. *)
        let flipped = t.nflips > 0 in
        if flipped then begin
          let tf = if timed then Obs.Clock.now () else 0. in
          apply_flips t;
          if timed then
            t.ftran_seconds <- t.ftran_seconds +. (Obs.Clock.now () -. tf)
        end;
        let target = if above then t.ub.{p} else t.lb.{p} in
        let delta = (t.xb.{r} -. target) /. w.{r} in
        let new_q_value = nb_value t q +. delta in
        t.run_obj <- t.run_obj +. (t.d.{q} *. delta);
        (* Reduced-cost update (before the basis mutates). *)
        let theta = t.d.{q} /. w.{r} in
        for k = 0 to t.nmovable - 1 do
          let j = t.movable.(k) in
          if j <> q then t.d.{j} <- t.d.{j} -. (theta *. t.alpha.{j})
        done;
        t.d.{p} <- -.theta;
        t.d.{q} <- 0.;
        (* Basic value update, over the rows w moves. *)
        for e = 0 to t.nw - 1 do
          let i = t.wlist.(e) in
          if i <> r then begin
            t.xb.{i} <- t.xb.{i} -. (w.{i} *. delta);
            refresh_viol t i
          end
        done;
        t.xb.{r} <- new_q_value;
        (* Swap. *)
        t.loc.(p) <- (if above then -2 else -1);
        t.loc.(q) <- r;
        t.basis.(r) <- q;
        refresh_viol t r;
        devex_update t r w;
        update t r w.{r};
        clear_alpha t;
        if Float.abs delta <= 1e-9 && not flipped then
          t.degen_count <- t.degen_count + 1
        else begin
          t.degen_count <- 0;
          t.bland <- false
        end;
        if t.degen_count > degen_limit then t.bland <- true;
        `Progress
      end
    end

(* The dual loop.  With a [cutoff], the running objective of the
   dual-feasible basis is watched: once it reaches the cutoff, the
   Lagrangian bound of fresh duals is computed, and the loop stops with
   Cutoff only if that verified bound reaches the cutoff too.  A failed
   check is repeated after [cutoff_recheck] more pivots, or after the
   next refactorization, which resyncs the running objective. *)
let dual_loop t ~max_iter ~deadline ~cutoff =
  let timed = Obs.enabled () in
  (* bounds may have changed since xb was last computed *)
  refresh_all_viol t;
  let iter = ref 0 in
  (* the cutoff is checked from this iteration on *)
  let armed_at = ref 0 in
  let resync () =
    compute_xb t;
    recompute_d t;
    t.run_obj <- objective t;
    armed_at := 0
  in
  t.run_obj <- objective t;
  let numerical_retries = ref 0 in
  let result = ref None in
  (try
     while !result = None do
       (match cutoff with
        | Some c when !iter >= !armed_at && t.run_obj >= c ->
          let bound = lagrangian_bound t in
          if bound >= c then begin
            t.cutoff_bound <- Some bound;
            raise (Stop Cutoff)
          end;
          armed_at := !iter + cutoff_recheck
        | _ -> ());
       if !iter >= max_iter then raise (Stop Iter_limit);
       check_deadline deadline !iter;
       incr iter;
       t.total_iters <- t.total_iters + 1;
       (* Periodic resync against drift: the fresh basic values double
          as a residual check -- large disagreement with the
          incrementally updated ones means the updated factors have
          degraded and triggers an early refactorization. *)
       if !iter mod 256 = 0 then begin
         Vec.blit t.xb t.xb_save;
         compute_xb t;
         t.run_obj <- objective t;
         let drift = ref 0. in
         for i = 0 to t.m - 1 do
           let d =
             Float.abs (t.xb.{i} -. t.xb_save.{i})
             /. (1. +. Float.abs t.xb.{i})
           in
           if d > !drift then drift := d
         done;
         if !drift > drift_tol then begin
           if not (refactor t Drift) then raise (Stop Numerical);
           resync ()
         end
       end;
       (* Refactorize when the updates call for it: one Markowitz
          elimination in the instance's factor storage, then xb and d
          resynced in O(nnz) against the fresh factors. *)
       (match refactor_due t with
        | Some reason ->
          if not (refactor t reason) then raise (Stop Numerical);
          resync ()
        | None -> ());
       match dual_step t ~timed with
       | `Progress -> ()
       | `Feasible -> result := Some Optimal
       | `Infeasible -> result := Some Infeasible
       | `Numerical_pivot ->
         incr numerical_retries;
         if !numerical_retries > 3 then raise (Stop Numerical);
         if not (refactor t Recovery) then raise (Stop Numerical);
         resync ()
     done
   with Stop s -> result := Some s);
  match !result with Some s -> s | None -> assert false

(* ------------------------------------------------------------------ *)
(* Primal simplex                                                      *)
(* ------------------------------------------------------------------ *)

let primal_step t =
  recompute_d t;
  (* Entering: most improving reduced cost (Bland: smallest index). *)
  let q = ref (-1) and best = ref 0. in
  for j = 0 to t.nn - 1 do
    if t.loc.(j) < 0 && t.ub.{j} -. t.lb.{j} > 1e-12 then begin
      let tol = dual_tol *. (1. +. Float.abs t.cost.{j}) in
      let improve =
        if t.loc.(j) = -1 then -.t.d.{j} else t.d.{j}
      in
      if improve > tol then
        if t.bland then begin
          if !q < 0 then begin q := j; best := improve end
        end
        else if improve > !best then begin
          q := j;
          best := improve
        end
    end
  done;
  if !q < 0 then `Optimal
  else begin
    let q = !q in
    let dir = if t.loc.(q) = -1 then 1. else -1. in
    let w = ftran ~keep:true t q in
    let limit = ref (t.ub.{q} -. t.lb.{q}) and leaving = ref (-1) in
    for i = 0 to t.m - 1 do
      let coef = -.dir *. w.{i} in
      let p = t.basis.(i) in
      if coef > pivot_tol then begin
        let room = Float.max 0. (t.ub.{p} -. t.xb.{i}) in
        let step = room /. coef in
        if step < !limit -. 1e-12 then begin limit := step; leaving := i end
      end
      else if coef < -.pivot_tol then begin
        let room = Float.max 0. (t.xb.{i} -. t.lb.{p}) in
        let step = room /. -.coef in
        if step < !limit -. 1e-12 then begin limit := step; leaving := i end
      end
    done;
    if !limit >= unbounded_threshold then `Unbounded
    else if !leaving < 0 then begin
      (* bound flip: q runs to its opposite bound *)
      let delta = !limit in
      for i = 0 to t.m - 1 do
        t.xb.{i} <- t.xb.{i} -. (dir *. w.{i} *. delta)
      done;
      t.loc.(q) <- (if t.loc.(q) = -1 then -2 else -1);
      `Progress
    end
    else begin
      let r = !leaving in
      let p = t.basis.(r) in
      let coef = -.dir *. w.{r} in
      let delta = !limit in
      let new_q_value = nb_value t q +. (dir *. delta) in
      for i = 0 to t.m - 1 do
        if i <> r then t.xb.{i} <- t.xb.{i} -. (dir *. w.{i} *. delta)
      done;
      t.xb.{r} <- new_q_value;
      t.loc.(p) <- (if coef > 0. then -2 else -1);
      t.loc.(q) <- r;
      t.basis.(r) <- q;
      devex_update t r w;
      update t r w.{r};
      if delta <= 1e-9 then t.degen_count <- t.degen_count + 1
      else begin
        t.degen_count <- 0;
        t.bland <- false
      end;
      if t.degen_count > degen_limit then t.bland <- true;
      `Progress
    end
  end

let primal_simplex ?(max_iter = 200_000) ?deadline t =
  let iter = ref 0 in
  let result = ref None in
  (try
     while !result = None do
       if !iter >= max_iter then raise (Stop Iter_limit);
       check_deadline deadline !iter;
       incr iter;
       t.total_iters <- t.total_iters + 1;
       (match refactor_due t with
        | Some reason ->
          if not (refactor t reason) then raise (Stop Numerical);
          compute_xb t
        | None -> ());
       if !iter mod 256 = 0 then compute_xb t;
       match primal_step t with
       | `Progress -> ()
       | `Optimal -> result := Some Optimal
       | `Unbounded -> result := Some Unbounded
     done
   with Stop s -> result := Some s);
  match !result with Some s -> s | None -> assert false

(* ------------------------------------------------------------------ *)
(* Reoptimize and top-level solve                                      *)
(* ------------------------------------------------------------------ *)

(* Verify dual feasibility with freshly computed reduced costs; the dual
   loop maintains them incrementally and drift is possible. *)
let dual_feasible t =
  recompute_d t;
  let ok = ref true in
  for j = 0 to t.nn - 1 do
    if t.loc.(j) < 0 && t.ub.{j} -. t.lb.{j} > 1e-12 then begin
      let tol = 1e-5 *. (1. +. Float.abs t.cost.{j}) in
      if t.loc.(j) = -1 && t.d.{j} < -.tol then ok := false;
      if t.loc.(j) = -2 && t.d.{j} > tol then ok := false
    end
  done;
  !ok

let reoptimize ?(max_iter = 200_000) ?deadline ?cutoff t =
  (* Warm entry: the previous reoptimize ended
     verified Optimal, so d is fresh for the unchanged basis and bounds
     do not enter reduced costs at all -- only the resting values of
     changed nonbasic variables moved.  Replaying those as ftran updates
     of xb replaces both full entry passes with a handful of column
     solves.  Every [warm_limit] consecutive warm starts the full
     recompute runs anyway, bounding accumulated drift that short node
     solves would never hit a periodic resync for. *)
  if t.warm && t.warm_solves < warm_limit then begin
    t.warm_solves <- t.warm_solves + 1;
    List.iter
      (fun (j, dv) ->
         let w = ftran t j in
         for e = 0 to t.nw - 1 do
           let i = t.wlist.(e) in
           t.xb.{i} <- t.xb.{i} -. (w.{i} *. dv)
         done)
      t.pending_bounds
  end
  else begin
    compute_xb t;
    recompute_d t;
    t.warm_solves <- 0
  end;
  t.pending_bounds <- [];
  t.npending <- 0;
  t.warm <- false;
  t.bland <- false;
  t.degen_count <- 0;
  Vec.fill t.dw 1.;
  t.infeas_ray <- None;
  t.cutoff_bound <- None;
  let status = dual_loop t ~max_iter ~deadline ~cutoff in
  match status with
  | Optimal ->
    (* Guard against reduced-cost drift: verify with fresh values, finish
       with primal pivots if needed (the point is primal feasible here).
       A verified exit leaves d fresh and xb current, arming the warm
       path for the next node. *)
    if dual_feasible t then begin
      t.warm <- true;
      Optimal
    end
    else primal_simplex ?deadline ~max_iter t
  | s -> s

let structural_on_patched_bound t =
  let hit = ref false in
  for j = 0 to t.n - 1 do
    let v = var_value t j in
    if (t.ub_patched.(j) && v > unbounded_threshold)
       || (t.lb_patched.(j) && v < -.unbounded_threshold)
    then hit := true
  done;
  !hit

type result = {
  status : status;
  x : float array;
  obj : float;
  iterations : int;
}

let solve ?(max_iter = 200_000) ?time_limit (std : Lp.std) =
  Obs.with_span "simplex.solve"
    ~attrs:[ ("rows", Obs.Int std.Lp.nrows); ("cols", Obs.Int std.Lp.ncols) ]
    (fun () ->
       let t = create std in
       let deadline =
         match time_limit with
         | Some s -> Some (Obs.Clock.now () +. s)
         | None -> None
       in
       let status = reoptimize ~max_iter ?deadline t in
       let status =
         if status = Optimal && structural_on_patched_bound t then Unbounded
         else status
       in
       if Obs.enabled () then begin
         Obs.count "simplex.iterations" (float_of_int t.total_iters);
         Obs.count "simplex.refactorizations" (float_of_int t.total_refactors);
         List.iter (fun (name, v) -> Obs.count name v) (pivot_counters t);
         if t.drift_rebuilds > 0 then
           Obs.count "simplex.drift_rebuilds" (float_of_int t.drift_rebuilds);
         if t.recovery_rebuilds > 0 then
           Obs.count "simplex.recovery_rebuilds"
             (float_of_int t.recovery_rebuilds);
         if eta_applications t > 0 then
           Obs.count "simplex.eta_applications"
             (float_of_int (eta_applications t));
         Obs.gauge "simplex.eta_len" (float_of_int t.updates_max);
         Obs.gauge "simplex.lu_nnz" (float_of_int (Sparse_lu.nnz t.lu));
         Obs.point "simplex.done"
           ~attrs:
             [
               ("status", Obs.Str (string_of_status status));
               ("iterations", Obs.Int t.total_iters);
             ]
       end;
       {
         status;
         x = primal t;
         obj = objective t +. std.Lp.obj_const;
         iterations = t.total_iters;
       })
