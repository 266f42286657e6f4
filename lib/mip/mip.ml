type limits = {
  time_limit : float option;
  node_limit : int option;
  gap : float;
  max_rows : int option;
}

let default_limits =
  { time_limit = Some 60.; node_limit = None; gap = 1e-3;
    max_rows = Some 32000 }

type solution = { x : float array; obj : float }

type outcome =
  | Optimal of solution
  | Feasible of solution * float
  | No_incumbent of float option
  | Infeasible
  | Unbounded
  | Too_large of { rows : int; limit : int }

type lp_certificate = {
  lp_x : float array;
  lp_y : float array;
  lp_reduced : float array;
  lp_obj : float;
}

type audit = {
  root_lp : lp_certificate option;
  farkas : float array option;
  bound_support : float array;
  proven_bound : float option;
  numerical_prunes : int;
}

type stats = {
  nodes : int;
  cutoff_prunes : int;
  simplex_iterations : int;
  bound_flips : int;
  lu_updates : int;
  refactorizations : int;
  eta_applications : int;
  elapsed : float;
  gap_achieved : float;
  audit : audit;
}

let int_tol = 1e-6

(* One branch-and-bound search for every [jobs]: a best-bound frontier
   grown on the caller's simplex, then a DFS dive per open subtree on a
   [jobs]-domain pool ([search_tree]).  Each frontier node and each dive
   node goes through [visit].

   A [search] is one participant's view: its own simplex instance and
   the bounds of its open DFS nodes.  The incumbent ([best]) and the node
   counter ([node_count]) are shared by every participant of the
   solve. *)
type search = {
  std : Lp.std;
  original : Lp.std;  (* the model [std] equilibrates *)
  restore : float array -> float array;  (* a point of [std] in [original] *)
  sx : Simplex.t;
  limits : limits;
  priority : int -> int;
  heuristic : (float array -> float array option) option;
  deadline : float option;
  int_vars : int array;
  best : (float * float array option) Atomic.t;
      (* the incumbent (minimization-sense objective, point); the
         objective only decreases *)
  node_count : int Atomic.t;
      (* nodes visited so far by every participant: [node_limit] caps the
         whole search, and each node takes its id from it *)
  cutoffs : int Atomic.t;  (* nodes closed by a simplex Cutoff *)
  (* Bounds of DFS nodes whose first child is being explored; the dive's
     lower bound is the minimum over this table and the current node. *)
  open_bounds : (int, float) Hashtbl.t;
  mutable numerical_prunes : int;
}

let incumbent_obj s = fst (Atomic.get s.best)

(* Install [x] as the incumbent if [obj] improves on it; the CAS loop
   keeps the objective monotonically decreasing under contention. *)
let rec improve s obj x =
  let cur = Atomic.get s.best in
  obj < fst cur -. 1e-9
  && (Atomic.compare_and_set s.best cur (obj, Some x) || improve s obj x)

exception Hit_limit

exception Gap_reached of float
(* carries the dive's lower bound proven at the moment the MIP gap
   criterion was satisfied *)

let out_of_time s =
  match s.deadline with None -> false | Some d -> Obs.Clock.now () > d

let rel_gap inc lb =
  if inc = infinity then infinity
  else (inc -. lb) /. Float.max 1. (Float.abs inc)

let emit_bound s ~node glb =
  if Obs.enabled () then
    Obs.point "mip.bound"
      ~attrs:
        [
          ("bound", Obs.Float (Lp.restore_objective s.std glb));
          ("node", Obs.Int node);
        ]

let check_gap s ~node current_lb =
  match Atomic.get s.best with
  | _, None -> ()
  | inc, Some _ ->
    let glb = Hashtbl.fold (fun _ b acc -> Float.min b acc) s.open_bounds current_lb in
    emit_bound s ~node glb;
    if rel_gap inc glb <= s.limits.gap then raise (Gap_reached glb)

(* Round integer coordinates of [x]; returns a fresh array. *)
let round_integers std x =
  let y = Array.copy x in
  Array.iteri
    (fun j is_int -> if is_int then y.(j) <- Float.round y.(j))
    std.Lp.integer;
  y

(* Vet [cand], rounded, against the searched model and, unscaled,
   against the original model (bounds, rows, integrality), and install it
   if it beats the incumbent.  The second vet matters on badly
   conditioned models: a point within tolerance of the equilibrated rows
   can break an original row by more.  Returns whether it passed. *)
let offer s ~node cand =
  let cand = round_integers s.std cand in
  let feasible =
    Lp.check_feasible ~tol:1e-5 s.std cand
    && Lp.check_feasible ~tol:1e-5 s.original (s.restore cand)
  in
  (if feasible then
     let obj = Lp.eval_objective s.std cand in
     if improve s obj cand && Obs.enabled () then
       Obs.point "mip.incumbent"
         ~attrs:
           [
             ("obj", Obs.Float (Lp.restore_objective s.std obj));
             ("node", Obs.Int node);
           ]);
  feasible

let most_fractional s x =
  let best = ref (-1) and best_frac = ref int_tol and best_prio = ref min_int in
  Array.iter
    (fun j ->
       let f = Float.abs (x.(j) -. Float.round x.(j)) in
       if f > int_tol then begin
         let p = s.priority j in
         if p > !best_prio || (p = !best_prio && f > !best_frac) then begin
           best := j;
           best_frac := f;
           best_prio := p
         end
       end)
    s.int_vars;
  if !best < 0 then None else Some !best

(* A relaxation point that leaves its own variable box by more than the
   integrality tolerance (seen on badly conditioned models) cannot be
   branched on: one child box would be empty and the other the parent's.
   Its subtree is abandoned like one the simplex failed on. *)
let outside_box s j xj =
  let lo, hi = Simplex.bounds s.sx j in
  xj < lo -. int_tol || xj > hi +. int_tol

type verdict =
  | Closed  (* infeasible, pruned by bound, or an integral leaf *)
  | Numerical
      (* the relaxation cannot be trusted: the subtree is abandoned, and
         the optimality proof with it *)
  | Branch of { id : int; bound : float; children : (int * float * float) list }
      (* the node's LP bound and its nonempty child boxes (variable, lb,
         ub), in exploration order *)

let numerical_prune s ~node =
  s.numerical_prunes <- s.numerical_prunes + 1;
  Obs.count "mip.prune.numerical" ~attrs:[ ("node", Obs.Int node) ] 1.;
  Numerical

(* The prune threshold in the simplex's objective space (no constant):
   a node whose LP bound reaches it cannot improve on the incumbent. *)
let cutoff_of s =
  match Atomic.get s.best with
  | _, None -> None
  | inc, Some _ ->
    Some (inc -. (1e-9 *. Float.max 1. (Float.abs inc)) -. s.std.Lp.obj_const)

(* Solve the node whose box is on [s.sx] and decide its fate.  With an
   incumbent, the node LP stops as soon as a verified Lagrangian bound
   reaches the prune threshold (Simplex Cutoff): the bound prune the full
   solve would make, reached sooner.  Raises [Hit_limit] on the time or
   node limit. *)
let visit s ~parent ~depth =
  if out_of_time s then raise Hit_limit;
  (match s.limits.node_limit with
   | Some n when Atomic.get s.node_count >= n -> raise Hit_limit
   | _ -> ());
  let id = Atomic.fetch_and_add s.node_count 1 + 1 in
  if Obs.enabled () then
    Obs.point "mip.node"
      ~attrs:
        (("node", Obs.Int id) :: ("depth", Obs.Int depth)
         :: (if parent > 0 then [ ("parent", Obs.Int parent) ] else []));
  match Simplex.reoptimize ?deadline:s.deadline ?cutoff:(cutoff_of s) s.sx with
  | Simplex.Infeasible ->
    Obs.count "mip.prune.infeasible" ~attrs:[ ("node", Obs.Int id) ] 1.;
    Closed
  | Simplex.Cutoff ->
    Atomic.incr s.cutoffs;
    Obs.count "mip.prune.bound" ~attrs:[ ("node", Obs.Int id) ] 1.;
    if Obs.enabled () then
      Option.iter
        (fun b ->
           let bound = Lp.restore_objective s.std (b +. s.std.Lp.obj_const) in
           Obs.count "mip.prune.cutoff"
             ~attrs:[ ("node", Obs.Int id); ("bound", Obs.Float bound) ]
             1.)
        (Simplex.cutoff_bound s.sx);
    Closed
  | Simplex.Time_limit -> raise Hit_limit
  | Simplex.Iter_limit | Simplex.Numerical | Simplex.Unbounded ->
    (* [reoptimize] never reports Unbounded *)
    numerical_prune s ~node:id
  | Simplex.Optimal ->
    let bound = Simplex.objective s.sx +. s.std.Lp.obj_const in
    let inc = incumbent_obj s in
    if bound >= inc -. 1e-9 *. Float.max 1. (Float.abs inc) then begin
      Obs.count "mip.prune.bound" ~attrs:[ ("node", Obs.Int id) ] 1.;
      Closed
    end
    else begin
      let x = Simplex.primal s.sx in
      match most_fractional s x with
      | None ->
        (* An integral point whose rounding fails the vet is a tolerance
           artifact of a badly conditioned model: its subtree is abandoned
           rather than trusted. *)
        if offer s ~node:id x then begin
          Obs.count "mip.integral_leaf" ~attrs:[ ("node", Obs.Int id) ] 1.;
          Closed
        end
        else numerical_prune s ~node:id
      | Some j when outside_box s j x.(j) -> numerical_prune s ~node:id
      | Some j ->
        (match s.heuristic with
         | Some h when id land 31 = 1 ->
           (match h x with Some cand -> ignore (offer s ~node:id cand) | None -> ())
         | _ -> ());
        let lo, hi = Simplex.bounds s.sx j in
        let fl = Float.of_int (int_of_float (Float.floor x.(j)))
        and ce = Float.of_int (int_of_float (Float.ceil x.(j))) in
        let down = (j, lo, fl) and up = (j, ce, hi) in
        let first, second =
          if x.(j) -. fl >= 0.5 then (up, down) else (down, up)
        in
        (* An empty child box (fractional bounds on an integer column)
           holds no point. *)
        let children = List.filter (fun (_, lb, ub) -> lb <= ub) [ first; second ] in
        Branch { id; bound; children }
    end

let rec dive s ~parent ~depth =
  match visit s ~parent ~depth with
  | Closed | Numerical -> ()
  | Branch { id; bound; children } ->
    check_gap s ~node:id bound;
    let rec explore = function
      | [] -> ()
      | (j, lb, ub) :: rest ->
        (* While a child's subtree is open, this node's bound stands for
           the siblings still to come. *)
        if rest <> [] then Hashtbl.replace s.open_bounds id bound
        else Hashtbl.remove s.open_bounds id;
        let lo, hi = Simplex.bounds s.sx j in
        Simplex.set_bounds s.sx j ~lb ~ub;
        dive s ~parent:id ~depth:(depth + 1);
        Simplex.set_bounds s.sx j ~lb:lo ~ub:hi;
        explore rest
    in
    explore children

(* An open subtree of the frontier: the bound changes along the path from
   the root (root-first, so replaying them in order over the root box
   reproduces the node's box), its parent's LP objective, which is a
   valid lower bound for everything inside the subtree, and the parent's
   node id (0 for the root). *)
type subtree = {
  changes : (int * float * float) list;  (* (var, lb, ub) *)
  sub_bound : float;
  sub_depth : int;
  sub_parent : int;
}

let insert_by_bound node queue =
  let rec go = function
    | [] -> [ node ]
    | n :: rest when n.sub_bound <= node.sub_bound -> n :: go rest
    | rest -> node :: rest
  in
  go queue

(* Sum two lists of named counters ([Simplex.pivot_counters] shape);
   the empty list stands for all zeros. *)
let add_counters a b =
  match (a, b) with
  | [], c | c, [] -> c
  | a, b -> List.map2 (fun (name, x) (_, y) -> (name, x +. y)) a b

(* The search, from the root-optimal [s.sx].  Expand the tree
   best-bound-first on the caller's simplex until at least [4 * jobs]
   open subtrees exist, then dive into each subtree on a [jobs]-domain
   pool (at [jobs = 1] the degenerate pool on the caller).  Dives that
   run at once use independent simplex instances ([Simplex.copy]); the
   incumbent is exchanged through [s.best] so all dives prune against
   the global best.

   Soundness of the aggregated proof: the global minimum is covered by
   (a) subtrees explored to exhaustion — every leaf pruned against an
   incumbent objective that only ever decreases towards the final one,
   so they prove [>= incumbent_obj]; (b) abandoned or unfinished parts,
   each of which contributes its own subtree/frontier LP bound.  The
   proven global lower bound is the minimum over those contributions,
   and the contribution list is returned as [bound_support] so the
   certificate layer can re-check [proven = min support] (C110).  Returns
   [(interrupted, proven_lb, support, dive_simplex_iters,
     dive_refactorizations, dive_eta_applications, dive_pivot_counters)]. *)
let search_tree s ~root_bound ~jobs =
  let target = 4 * jobs in
  let queue =
    ref [ { changes = []; sub_bound = root_bound; sub_depth = 0; sub_parent = 0 } ]
  in
  let contribs = ref [] in
  let stopped = ref false in
  let gap_stop = ref None in
  let root_box = Array.map (fun j -> (j, Simplex.bounds s.sx j)) s.int_vars in
  (* Put [node]'s box on [sx]: the root's integer boxes, then the node's
     bound changes.  Whatever basis [sx] holds stays dual feasible under
     bound changes, so it warm-starts the node. *)
  let enter sx node =
    Array.iter (fun (j, (lb, ub)) -> Simplex.set_bounds sx j ~lb ~ub) root_box;
    List.iter (fun (j, lb, ub) -> Simplex.set_bounds sx j ~lb ~ub) node.changes
  in
  while (not !stopped) && !gap_stop = None && !queue <> [] && List.length !queue < target do
    let node = List.hd !queue in
    queue := List.tl !queue;
    enter s.sx node;
    (match visit s ~parent:node.sub_parent ~depth:node.sub_depth with
     | Closed -> ()
     | Numerical -> contribs := node.sub_bound :: !contribs
     | Branch { id; bound; children } ->
       List.iter
         (fun c ->
            queue :=
              insert_by_bound
                { changes = node.changes @ [ c ]; sub_bound = bound;
                  sub_depth = node.sub_depth + 1; sub_parent = id }
                !queue)
         children
     | exception Hit_limit ->
       stopped := true;
       contribs := node.sub_bound :: !contribs);
    (* Frontier-wide gap check: the queue is sorted by bound, so its head
       bounds everything still open. *)
    match (Atomic.get s.best, !queue) with
    | (inc, Some _), first :: _ when not !stopped ->
      emit_bound s ~node:(Atomic.get s.node_count) first.sub_bound;
      if rel_gap inc first.sub_bound <= s.limits.gap then
        gap_stop := Some first.sub_bound
    | _ -> ()
  done;
  (* The dives share [jobs] simplex instances: the caller's and [jobs - 1]
     copies of it, made before the dives start.  A dive takes a free
     instance and enters its subtree's box there. *)
  let dives = (not !stopped) && !gap_stop = None && !queue <> [] in
  let copies =
    if dives then Array.init (jobs - 1) (fun _ -> Simplex.copy s.sx) else [||]
  in
  let free = ref (s.sx :: Array.to_list copies) and lock = Mutex.create () in
  (* each copy's counters start from the root instance's at this point *)
  let base_iters = Simplex.iterations s.sx
  and base_refacs = Simplex.refactorizations s.sx
  and base_etas = Simplex.eta_applications s.sx
  and base_counters = Simplex.pivot_counters s.sx in
  let run_subtree node =
    (* at most [jobs] dives run at once, so one instance is always free *)
    let sx =
      Mutex.protect lock (fun () ->
          let sx = List.hd !free in
          free := List.tl !free;
          sx)
    in
    enter sx node;
    let ws = { s with sx; open_bounds = Hashtbl.create 64; numerical_prunes = 0 } in
    let verdict =
      try
        dive ws ~parent:node.sub_parent ~depth:node.sub_depth;
        if ws.numerical_prunes = 0 then `Clean else `Abandoned node.sub_bound
      with
      | Hit_limit -> `Limit node.sub_bound
      | Gap_reached glb -> `Gap glb
    in
    Mutex.protect lock (fun () -> free := sx :: !free);
    (verdict, ws.numerical_prunes)
  in
  let results =
    if dives then
      Par.with_pool ~jobs (fun pool ->
          Par.map_array pool run_subtree (Array.of_list !queue))
    else [||]
  in
  let interrupted = ref (!stopped || !gap_stop <> None) in
  (match !gap_stop with Some glb -> contribs := glb :: !contribs | None -> ());
  if !stopped then
    List.iter (fun n -> contribs := n.sub_bound :: !contribs) !queue;
  Array.iter
    (fun (verdict, np) ->
       s.numerical_prunes <- s.numerical_prunes + np;
       match verdict with
       | `Clean -> ()
       | `Abandoned b -> contribs := b :: !contribs
       | `Limit b | `Gap b ->
         interrupted := true;
         contribs := b :: !contribs)
    results;
  let support =
    match Atomic.get s.best with
    | inc, Some _ -> inc :: !contribs
    | _, None -> !contribs
  in
  let proven = List.fold_left Float.min infinity support in
  let copied f base = Array.fold_left (fun acc c -> acc + f c - base) 0 copies in
  let copied_counters =
    Array.fold_left
      (fun acc c ->
         add_counters acc
           (List.map2
              (fun (name, v) (_, v0) -> (name, v -. v0))
              (Simplex.pivot_counters c) base_counters))
      [] copies
  in
  (!interrupted, proven, Array.of_list support,
   copied Simplex.iterations base_iters,
   copied Simplex.refactorizations base_refacs,
   copied Simplex.eta_applications base_etas, copied_counters)

let pp_outcome ppf = function
  | Optimal { obj; _ } -> Format.fprintf ppf "optimal %g" obj
  | Feasible ({ obj; _ }, bound) ->
    if Float.is_finite bound then
      Format.fprintf ppf "feasible %g (bound %g, gap %.2g%%)" obj bound
        (100. *. Float.abs (obj -. bound) /. Float.max 1. (Float.abs obj))
    else Format.fprintf ppf "feasible %g (bound %g)" obj bound
  | No_incumbent (Some b) ->
    Format.fprintf ppf "no incumbent (proven bound %g)" b
  | No_incumbent None -> Format.fprintf ppf "no incumbent"
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"
  | Too_large { rows; limit } ->
    Format.fprintf ppf "too large (%d rows, limit %d)" rows limit

(* Reduced costs d = c - yᵀA of [std] from a row-dual vector, computed
   against the original (sparse row) matrix: the root certificate's
   reduced costs, re-derived in the original column space from the
   back-mapped duals. *)
let reduced_costs_from (std : Lp.std) y =
  let d = Array.copy std.Lp.obj in
  for r = 0 to std.Lp.nrows - 1 do
    let yr = y.(r) in
    if yr <> 0. then
      Array.iteri
        (fun k j -> d.(j) <- d.(j) -. (yr *. std.Lp.row_val.(r).(k)))
        std.Lp.row_idx.(r)
  done;
  d

let no_audit =
  {
    root_lp = None;
    farkas = None;
    bound_support = [||];
    proven_bound = None;
    numerical_prunes = 0;
  }

let outcome_tag = function
  | Optimal _ -> "optimal"
  | Feasible _ -> "feasible"
  | No_incumbent _ -> "no_incumbent"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Too_large _ -> "too_large"

let solve ?(limits = default_limits) ?(priority = fun _ -> 0) ?heuristic
    ?(jobs = 1) ?simplex_workspace model =
  let original_std = Lp.standardize model in
  Obs.with_span "mip.solve"
    ~attrs:
      [
        ("rows", Obs.Int original_std.Lp.nrows);
        ("cols", Obs.Int original_std.Lp.ncols);
      ]
  @@ fun () ->
  let start = Obs.Clock.now () in
  let finish ?(cutoffs = 0) ?(flips = 0) ?(updates = 0) outcome ~nodes ~iters
      ~refacs ~etas
      ~eta_len ~gap_achieved ~audit =
    (* The counters emitted here carry exactly the values returned in
       [stats], so a trace consumer can cross-check them 1:1. *)
    if Obs.enabled () then begin
      Obs.count "mip.nodes" (float_of_int nodes);
      Obs.count "mip.simplex_iterations" (float_of_int iters);
      if refacs > 0 then
        Obs.count "simplex.refactorizations" (float_of_int refacs);
      if etas > 0 then
        Obs.count "simplex.eta_applications" (float_of_int etas);
      if eta_len > 0 then Obs.gauge "simplex.eta_len" (float_of_int eta_len);
      if Float.is_finite gap_achieved then
        Obs.gauge "mip.gap_achieved" gap_achieved;
      Obs.point "mip.done" ~attrs:[ ("outcome", Obs.Str (outcome_tag outcome)) ]
    end;
    (outcome,
     { nodes;
       cutoff_prunes = cutoffs;
       simplex_iterations = iters;
       bound_flips = flips;
       lu_updates = updates;
       refactorizations = refacs;
       eta_applications = etas;
       elapsed = Obs.Clock.now () -. start;
       gap_achieved;
       audit })
  in
  match limits.max_rows with
  | Some r when original_std.Lp.nrows > r ->
    (* Leave a trace of the refusal: a silent Too_large is
       indistinguishable from a solver that never ran (documented next
       to the M/I/P codes in docs/ANALYSIS.md). *)
    if Obs.enabled () then
      Obs.point "mip.too_large"
        ~attrs:
          [ ("rows", Obs.Int original_std.Lp.nrows); ("max_rows", Obs.Int r) ];
    finish (Too_large { rows = original_std.Lp.nrows; limit = r }) ~nodes:0
      ~iters:0 ~refacs:0 ~etas:0 ~eta_len:0 ~gap_achieved:infinity
      ~audit:no_audit
  | _ ->
    (* The search runs on the equilibrated model over x' = x / c
       ([Scaling.equilibrate]).  Every exit point back-maps through
       [restore]/[restore_y]; the power-of-two factors make the
       back-mapping exact, so certificates on the returned artifacts hold
       in the original spaces.  Integer columns keep factor 1: branching
       and integrality are untouched, and the objective value is
       invariant. *)
    let sc, std = Scaling.equilibrate original_std in
    let restore = Scaling.unscale_point sc
    and restore_y = Scaling.unscale_duals sc in
    (* Heuristic candidates live in the caller's space; translate both
       ways around the callback. *)
    let heuristic =
      Option.map
        (fun h x -> Option.map (Scaling.scale_point sc) (h (restore x)))
        heuristic
    in
    let sx = Simplex.create ?workspace:simplex_workspace std in
    let cutoffs = Atomic.make 0 in
    (* [par_counters]: the pivot counters of the parallel subtree
       workers, added to the root instance's own *)
    let finish ?(par_counters = []) outcome =
      let counters = add_counters (Simplex.pivot_counters sx) par_counters in
      if Obs.enabled () then List.iter (fun (name, v) -> Obs.count name v) counters;
      let counter name = int_of_float (List.assoc name counters) in
      finish ~cutoffs:(Atomic.get cutoffs)
        ~flips:(counter "simplex.bound_flips")
        ~updates:(counter "simplex.lu_updates")
        (match outcome with
         | Optimal s -> Optimal { s with x = restore s.x }
         | Feasible (s, b) -> Feasible ({ s with x = restore s.x }, b)
         | o -> o)
    in
    let deadline = Option.map (fun tl -> start +. tl) limits.time_limit in
    let int_vars =
      Array.of_list
        (List.filter
           (fun j -> std.Lp.integer.(j))
           (List.init std.Lp.ncols (fun j -> j)))
    in
    let s =
      {
        std; original = original_std; restore; sx; limits; priority;
        heuristic; deadline; int_vars;
        best = Atomic.make (infinity, None);
        node_count = Atomic.make 0;
        cutoffs;
        open_bounds = Hashtbl.create 64;
        numerical_prunes = 0;
      }
    in
    let root_status = Simplex.reoptimize ?deadline s.sx in
    (match root_status with
     | Simplex.Infeasible ->
       (* A scaled ray unscales exactly (y = r·y'; positive factors
          preserve the sign conditions). *)
       let farkas = Option.map restore_y (Simplex.farkas_ray sx) in
       finish Infeasible ~nodes:1 ~iters:(Simplex.iterations sx)
         ~refacs:(Simplex.refactorizations sx)
         ~etas:(Simplex.eta_applications sx)
         ~eta_len:(Simplex.max_updates_per_factor sx) ~gap_achieved:infinity
         ~audit:{ no_audit with farkas }
     | Simplex.Time_limit | Simplex.Iter_limit | Simplex.Numerical
     | Simplex.Cutoff ->
       (* no incumbent exists before the root relaxation is solved (nor a
          cutoff) *)
       finish (No_incumbent None) ~nodes:1 ~iters:(Simplex.iterations sx)
         ~refacs:(Simplex.refactorizations sx)
         ~etas:(Simplex.eta_applications sx)
         ~eta_len:(Simplex.max_updates_per_factor sx) ~gap_achieved:infinity
         ~audit:no_audit
     | Simplex.Optimal | Simplex.Unbounded ->
       (* The incremental interface cannot return Unbounded; detect patched
          bounds explicitly via the solution magnitude. *)
       let root_x = Simplex.primal sx in
       if Array.exists (fun v -> Float.abs v > 1e9) (restore root_x) then
         finish Unbounded ~nodes:1 ~iters:(Simplex.iterations sx)
           ~refacs:(Simplex.refactorizations sx)
           ~etas:(Simplex.eta_applications sx)
           ~eta_len:(Simplex.max_updates_per_factor sx) ~gap_achieved:infinity
           ~audit:no_audit
       else begin
         let root_bound = Simplex.objective sx +. std.Lp.obj_const in
         if Obs.enabled () then
           Obs.gauge "mip.root_lp_obj" (Lp.restore_objective std root_bound);
         (* Capture the root relaxation's certificate before branching
            disturbs the basis: duals and reduced costs back-mapped into
            the original spaces so an independent checker can re-derive
            the bound without trusting the solver. *)
         let root_lp =
           let y = restore_y (Simplex.duals sx) in
           Some
             { lp_x = restore root_x;
               lp_y = y;
               lp_reduced = reduced_costs_from original_std y;
               lp_obj = root_bound }
         in
         (* Root heuristic, before the root node is counted. *)
         (match heuristic with
          | Some h ->
            (match h root_x with
             | Some cand -> ignore (offer s ~node:0 cand)
             | None -> ())
          | None -> ());
         let ( interrupted,
               proven_lb,
               support,
               par_iters,
               par_refacs,
               par_etas,
               par_counters ) =
           search_tree s ~root_bound ~jobs
         in
         (* A subtree abandoned on numerical trouble voids the exhaustive
            search: its bound joins the support and the claim is read
            exactly as after an interruption. *)
         let interrupted = interrupted || s.numerical_prunes > 0 in
         let nodes = Atomic.get s.node_count in
         let iters = Simplex.iterations sx + par_iters in
         let refacs = Simplex.refactorizations sx + par_refacs in
         let etas = Simplex.eta_applications sx + par_etas in
         let eta_len = Simplex.max_updates_per_factor sx in
         let lb_min = proven_lb in
         let audit glb_known =
           { no_audit with
             root_lp;
             bound_support = (if glb_known then support else [||]);
             proven_bound = (if glb_known then Some lb_min else None);
             numerical_prunes = s.numerical_prunes }
         in
         match Atomic.get s.best with
         | _, None ->
           if interrupted then
             finish ~par_counters
               (No_incumbent (Some (Lp.restore_objective std lb_min)))
               ~nodes ~iters ~refacs ~etas ~eta_len
               ~gap_achieved:infinity ~audit:(audit true)
           else
             finish ~par_counters Infeasible ~nodes ~iters ~refacs
               ~etas ~eta_len ~gap_achieved:infinity ~audit:(audit false)
         | inc, Some x ->
           let sol = { x; obj = Lp.restore_objective std inc } in
           let g = rel_gap inc lb_min in
           if (not interrupted) || g <= limits.gap then
             finish ~par_counters (Optimal sol) ~nodes ~iters ~refacs
               ~etas ~eta_len ~gap_achieved:(Float.max g 0.)
               ~audit:(audit true)
           else
             finish ~par_counters
               (Feasible (sol, Lp.restore_objective std lb_min))
               ~nodes ~iters ~refacs ~etas ~eta_len ~gap_achieved:g
               ~audit:(audit true)
       end)
