type limits = {
  time_limit : float option;
  node_limit : int option;
  gap : float;
  max_rows : int option;
  refactor_every : int;
}

let default_limits =
  { time_limit = Some 60.; node_limit = None; gap = 1e-3;
    max_rows = Some 32000; refactor_every = 32 }

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
  simplex_iterations : int;
  refactorizations : int;
  eta_applications : int;
  elapsed : float;
  gap_achieved : float;
  audit : audit;
}

let int_tol = 1e-6

(* State shared between the domains of a parallel search ([solve ~jobs]).
   [None] in every sequential search: the sequential code path is the
   pre-parallelism one, bit for bit. *)
type shared = {
  best : (float * float array option) Atomic.t;
      (* global incumbent (objective, point); objective only decreases *)
  nodes_global : int Atomic.t;
      (* process-wide node count, so [node_limit] caps the whole search
         rather than each domain separately *)
}

type search = {
  std : Lp.std;
  sx : Simplex.t;
  limits : limits;
  priority : int -> int;
  heuristic : (float array -> float array option) option;
  start : float;
  deadline : float option;
  int_vars : int array;
  mutable incumbent : float array option;   (* minimization-sense best point *)
  mutable incumbent_obj : float;
  (* Bounds of nodes pushed on the DFS path but not yet fully explored;
     the global lower bound is the minimum over this table (plus the node
     currently being expanded, which always registers before recursing). *)
  open_bounds : (int, float) Hashtbl.t;
  mutable next_node_id : int;
  mutable nodes : int;
  mutable numerical_prunes : int;
  mutable shared : shared option;
}

(* Pull a better incumbent published by another domain into this
   domain's local view, so its prune threshold tightens. *)
let sync_shared s =
  match s.shared with
  | None -> ()
  | Some sh ->
    let obj, x = Atomic.get sh.best in
    if obj < s.incumbent_obj then begin
      s.incumbent_obj <- obj;
      s.incumbent <- x
    end

(* Publish this domain's incumbent; the CAS loop keeps the shared
   objective monotonically decreasing under contention. *)
let rec publish_shared s =
  match s.shared with
  | None -> ()
  | Some sh ->
    let cur = Atomic.get sh.best in
    if s.incumbent_obj < fst cur then
      if not (Atomic.compare_and_set sh.best cur (s.incumbent_obj, s.incumbent))
      then publish_shared s

exception Hit_limit

exception Gap_reached of float * float array
(* carries the global lower bound proven at the moment the MIP gap
   criterion was satisfied, together with the open node bounds supporting
   it (for the audit trail — the Hashtbl is unwound by the handlers) *)

let out_of_time s =
  match s.deadline with None -> false | Some d -> Obs.Clock.now () > d

let global_lower_bound s current =
  Hashtbl.fold (fun _ b acc -> Float.min b acc) s.open_bounds current

let rel_gap inc lb =
  if inc = infinity then infinity
  else (inc -. lb) /. Float.max 1. (Float.abs inc)

let bound_support s current =
  let acc = Hashtbl.fold (fun _ b acc -> b :: acc) s.open_bounds [ current ] in
  Array.of_list acc

let check_gap s current_lb =
  match s.incumbent with
  | None -> ()
  | Some _ ->
    let glb = global_lower_bound s current_lb in
    if Obs.enabled () then
      Obs.point "mip.bound"
        ~attrs:
          [
            ("bound", Obs.Float (Lp.restore_objective s.std glb));
            ("node", Obs.Int s.nodes);
          ];
    if rel_gap s.incumbent_obj glb <= s.limits.gap then
      raise (Gap_reached (glb, bound_support s current_lb))

(* Round integer coordinates of [x]; returns a fresh array. *)
let round_integers std x =
  let y = Array.copy x in
  Array.iteri
    (fun j is_int -> if is_int then y.(j) <- Float.round y.(j))
    std.Lp.integer;
  y

(* Try to install [cand] as the new incumbent.  The candidate is vetted
   against the original model (bounds, rows, integrality). *)
let offer s cand =
  let cand = round_integers s.std cand in
  if Lp.check_feasible ~tol:1e-5 s.std cand then begin
    let obj = Lp.eval_objective s.std cand in
    if obj < s.incumbent_obj -. 1e-9 then begin
      s.incumbent <- Some cand;
      s.incumbent_obj <- obj;
      publish_shared s;
      if Obs.enabled () then
        Obs.point "mip.incumbent"
          ~attrs:
            [
              ("obj", Obs.Float (Lp.restore_objective s.std obj));
              ("node", Obs.Int s.nodes);
            ];
      true
    end
    else false
  end
  else false

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

let numerical_prune s =
  s.numerical_prunes <- s.numerical_prunes + 1;
  Obs.count "mip.prune.numerical" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.

let rec branch s depth =
  if out_of_time s then raise Hit_limit;
  sync_shared s;
  (match s.limits.node_limit with
   | Some n ->
     let counted =
       match s.shared with
       | Some sh -> Atomic.get sh.nodes_global
       | None -> s.nodes
     in
     if counted >= n then raise Hit_limit
   | None -> ());
  s.nodes <- s.nodes + 1;
  (match s.shared with
   | Some sh -> Atomic.incr sh.nodes_global
   | None -> ());
  if Obs.enabled () then
    Obs.point "mip.node"
      ~attrs:[ ("node", Obs.Int s.nodes); ("depth", Obs.Int depth) ];
  match Simplex.reoptimize ?deadline:s.deadline s.sx with
  | Simplex.Infeasible -> Obs.count "mip.prune.infeasible" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.
  | Simplex.Time_limit -> raise Hit_limit
  | Simplex.Iter_limit | Simplex.Numerical ->
    (* Cannot trust this subtree's relaxation; abandoning it loses the
       optimality proof, which the caller reports via the gap. *)
    numerical_prune s
  | Simplex.Unbounded -> ()  (* cannot happen from reoptimize *)
  | Simplex.Optimal ->
    let bound = Simplex.objective s.sx +. s.std.Lp.obj_const in
    if bound >= s.incumbent_obj -. 1e-9 *. Float.max 1. (Float.abs s.incumbent_obj)
    then Obs.count "mip.prune.bound" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.
    else begin
      let x = Simplex.primal s.sx in
      match most_fractional s x with
      | None ->
        Obs.count "mip.integral_leaf" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.;
        if not (offer s x) then
          (* Rounding failed the vet (tolerance artifact): accept the raw
             relaxation point, which is integral within int_tol. *)
          if bound < s.incumbent_obj -. 1e-9 then begin
            s.incumbent <- Some (round_integers s.std x);
            s.incumbent_obj <- bound;
            publish_shared s;
            if Obs.enabled () then
              Obs.point "mip.incumbent"
                ~attrs:
                  [
                    ("obj", Obs.Float (Lp.restore_objective s.std bound));
                    ("node", Obs.Int s.nodes);
                  ]
          end
      | Some j when outside_box s j x.(j) -> numerical_prune s
      | Some j ->
        (match s.heuristic with
         | Some h when s.nodes land 31 = 1 ->
           (match h x with Some cand -> ignore (offer s cand) | None -> ())
         | _ -> ());
        check_gap s bound;
        let lo, hi = Simplex.bounds s.sx j in
        let fl = Float.of_int (int_of_float (Float.floor x.(j)))
        and ce = Float.of_int (int_of_float (Float.ceil x.(j))) in
        let explore side =
          let lb, ub = match side with `Down -> (lo, fl) | `Up -> (ce, hi) in
          (* An empty child box (fractional bounds on an integer column)
             holds no point. *)
          if lb <= ub then begin
            Simplex.set_bounds s.sx j ~lb ~ub;
            branch s (depth + 1);
            Simplex.set_bounds s.sx j ~lb:lo ~ub:hi
          end
        in
        let first, second =
          if x.(j) -. fl >= 0.5 then (`Up, `Down) else (`Down, `Up)
        in
        (* Register this node's bound for the sibling subtree so the global
           lower bound stays valid while we are inside the first child. *)
        let id = s.next_node_id in
        s.next_node_id <- id + 1;
        Hashtbl.replace s.open_bounds id bound;
        (try explore first
         with e ->
           Hashtbl.remove s.open_bounds id;
           raise e);
        Hashtbl.remove s.open_bounds id;
        explore second
    end

(* ------------------------------------------------------------------ *)
(* Parallel branch-and-bound (solve ~jobs)                             *)
(* ------------------------------------------------------------------ *)

(* An open subtree produced by the breadth-first expansion: the bound
   changes along the path from the root (root-first, so replaying them
   in order reproduces the node's variable box on a fresh root copy)
   and the parent's LP objective, which is a valid lower bound for
   everything inside the subtree. *)
type subtree = {
  changes : (int * float * float) list;  (* (var, lb, ub) *)
  sub_bound : float;
  sub_depth : int;
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

(* Multi-domain search: expand the tree best-bound-first on the caller's
   simplex until at least [4 * jobs] open subtrees exist, then solve
   each subtree on the pool.  Every worker gets an independent
   [Simplex.copy] of the root-optimal instance (a dual-feasible warm
   start for any subtree box) and runs the ordinary [branch] DFS; the
   incumbent is exchanged through [shared.best] so all domains prune
   against the global best.

   Soundness of the aggregated proof: the global minimum is covered by
   (a) subtrees explored to exhaustion — every leaf pruned against an
   incumbent objective that only ever decreases towards the final one,
   so they prove [>= incumbent_obj] exactly as the sequential search
   does; (b) abandoned or unfinished parts, each of which contributes
   its own subtree/frontier LP bound.  The proven global lower bound is
   the minimum over those contributions, and the contribution list is
   returned as [bound_support] so the certificate layer can re-check
   [proven = min support] (C110).  Returns
   [(interrupted, proven_lb, support, worker_simplex_iters,
     worker_refactorizations, worker_eta_applications,
     worker_pivot_counters)]. *)
let parallel_search s ~root_bound ~jobs =
  let sh =
    {
      best = Atomic.make (s.incumbent_obj, s.incumbent);
      nodes_global = Atomic.make s.nodes;
    }
  in
  s.shared <- Some sh;
  let target = 4 * jobs in
  let queue = ref [ { changes = []; sub_bound = root_bound; sub_depth = 0 } ] in
  let contribs = ref [] in
  let stopped = ref false in
  let gap_stop = ref None in
  let node_limit_hit () =
    match s.limits.node_limit with
    | Some n -> Atomic.get sh.nodes_global >= n
    | None -> false
  in
  while
    (not !stopped) && !gap_stop = None && !queue <> []
    && List.length !queue < target
  do
    (* Frontier-wide gap check (the expansion-phase analogue of
       [check_gap]): the minimum over open subtree bounds is the global
       lower bound right now. *)
    (match s.incumbent with
     | Some _ ->
       let glb =
         List.fold_left (fun acc n -> Float.min acc n.sub_bound) infinity !queue
       in
       if Obs.enabled () then
         Obs.point "mip.bound"
           ~attrs:
             [
               ("bound", Obs.Float (Lp.restore_objective s.std glb));
               ("node", Obs.Int s.nodes);
             ];
       if rel_gap s.incumbent_obj glb <= s.limits.gap then gap_stop := Some glb
     | None -> ());
    match !queue with
    | [] -> ()
    | node :: rest when !gap_stop = None ->
      if out_of_time s || node_limit_hit () then stopped := true
      else begin
        queue := rest;
        s.nodes <- s.nodes + 1;
        Atomic.incr sh.nodes_global;
        if Obs.enabled () then
          Obs.point "mip.node"
            ~attrs:[ ("node", Obs.Int s.nodes); ("depth", Obs.Int node.sub_depth) ];
        (* Apply the node's box on the caller's simplex, recording the
           previous bounds so it can be restored to the root box. *)
        let saved =
          List.rev_map
            (fun (j, lb, ub) ->
               let plo, phi = Simplex.bounds s.sx j in
               Simplex.set_bounds s.sx j ~lb ~ub;
               (j, plo, phi))
            node.changes
        in
        (match Simplex.reoptimize ?deadline:s.deadline s.sx with
         | Simplex.Infeasible -> Obs.count "mip.prune.infeasible" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.
         | Simplex.Time_limit ->
           stopped := true;
           contribs := node.sub_bound :: !contribs
         | Simplex.Iter_limit | Simplex.Numerical ->
           numerical_prune s;
           contribs := node.sub_bound :: !contribs
         | Simplex.Unbounded -> ()  (* cannot happen from reoptimize *)
         | Simplex.Optimal ->
           let bound = Simplex.objective s.sx +. s.std.Lp.obj_const in
           if
             bound
             >= s.incumbent_obj
                -. (1e-9 *. Float.max 1. (Float.abs s.incumbent_obj))
           then Obs.count "mip.prune.bound" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.
           else begin
             let x = Simplex.primal s.sx in
             match most_fractional s x with
             | None ->
               Obs.count "mip.integral_leaf" ~attrs:[ ("node", Obs.Int s.nodes) ] 1.;
               if not (offer s x) then
                 if bound < s.incumbent_obj -. 1e-9 then begin
                   s.incumbent <- Some (round_integers s.std x);
                   s.incumbent_obj <- bound;
                   publish_shared s;
                   if Obs.enabled () then
                     Obs.point "mip.incumbent"
                       ~attrs:
                         [
                           ("obj", Obs.Float (Lp.restore_objective s.std bound));
                           ("node", Obs.Int s.nodes);
                         ]
                 end
             | Some j when outside_box s j x.(j) ->
               numerical_prune s;
               contribs := node.sub_bound :: !contribs
             | Some j ->
               let lo, hi = Simplex.bounds s.sx j in
               let fl = Float.of_int (int_of_float (Float.floor x.(j)))
               and ce = Float.of_int (int_of_float (Float.ceil x.(j))) in
               let child changes =
                 {
                   changes = node.changes @ [ changes ];
                   sub_bound = bound;
                   sub_depth = node.sub_depth + 1;
                 }
               in
               let down = (j, lo, fl) and up = (j, ce, hi) in
               let first, second =
                 if x.(j) -. fl >= 0.5 then (up, down) else (down, up)
               in
               (* An empty child box (fractional bounds on an integer
                  column) holds no point. *)
               List.iter
                 (fun ((_, lb, ub) as c) ->
                    if lb <= ub then queue := insert_by_bound (child c) !queue)
                 [ first; second ]
           end);
        List.iter
          (fun (j, lo, hi) -> Simplex.set_bounds s.sx j ~lb:lo ~ub:hi)
          saved
      end
    | _ -> ()
  done;
  (* Solve the open subtrees on the pool.  Each worker copies the
     root-boxed, root-warm simplex, replays its subtree's bound changes
     and runs the ordinary DFS. *)
  let run_subtree node =
    let wsx = Simplex.copy s.sx in
    let iters0 = Simplex.iterations wsx in
    let refacs0 = Simplex.refactorizations wsx in
    let etas0 = Simplex.eta_applications wsx in
    let counters0 = Simplex.pivot_counters wsx in
    List.iter (fun (j, lb, ub) -> Simplex.set_bounds wsx j ~lb ~ub) node.changes;
    let iobj, ix = Atomic.get sh.best in
    let ws =
      {
        s with
        sx = wsx;
        incumbent = ix;
        incumbent_obj = iobj;
        open_bounds = Hashtbl.create 64;
        next_node_id = 0;
        nodes = 0;
        numerical_prunes = 0;
      }
    in
    let verdict =
      try
        branch ws node.sub_depth;
        if ws.numerical_prunes = 0 then `Clean else `Abandoned node.sub_bound
      with
      | Hit_limit -> `Limit (global_lower_bound ws node.sub_bound)
      | Gap_reached (glb, _) -> `Gap glb
    in
    ( verdict,
      ws.nodes,
      Simplex.iterations wsx - iters0,
      Simplex.refactorizations wsx - refacs0,
      Simplex.eta_applications wsx - etas0,
      List.map2
        (fun (name, v) (_, v0) -> (name, v -. v0))
        (Simplex.pivot_counters wsx) counters0,
      ws.numerical_prunes )
  in
  let results =
    if !stopped || !gap_stop <> None || !queue = [] then [||]
    else
      Par.with_pool ~jobs (fun pool ->
          Par.map_array pool run_subtree (Array.of_list !queue))
  in
  let interrupted = ref (!stopped || !gap_stop <> None) in
  (match !gap_stop with Some glb -> contribs := glb :: !contribs | None -> ());
  if !stopped then
    List.iter (fun n -> contribs := n.sub_bound :: !contribs) !queue;
  let par_iters = ref 0 and par_refacs = ref 0 and par_etas = ref 0 in
  let par_counters = ref [] in
  Array.iter
    (fun (verdict, n, it, rf, ea, counters, np) ->
       s.nodes <- s.nodes + n;
       par_iters := !par_iters + it;
       par_refacs := !par_refacs + rf;
       par_etas := !par_etas + ea;
       par_counters := add_counters !par_counters counters;
       s.numerical_prunes <- s.numerical_prunes + np;
       match verdict with
       | `Clean -> ()
       | `Abandoned b -> contribs := b :: !contribs
       | `Limit b ->
         interrupted := true;
         contribs := b :: !contribs
       | `Gap b ->
         interrupted := true;
         contribs := b :: !contribs)
    results;
  (* Adopt the portfolio-best incumbent, then drop the shared state. *)
  let iobj, ix = Atomic.get sh.best in
  if iobj < s.incumbent_obj then begin
    s.incumbent <- ix;
    s.incumbent_obj <- iobj
  end;
  s.shared <- None;
  let support =
    match s.incumbent with
    | Some _ -> s.incumbent_obj :: !contribs
    | None -> !contribs
  in
  let proven = List.fold_left Float.min infinity support in
  (!interrupted, proven, Array.of_list support, !par_iters, !par_refacs,
   !par_etas, !par_counters)

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
  let finish outcome ~nodes ~iters ~refacs ~etas ~eta_len ~gap_achieved ~audit
    =
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
       simplex_iterations = iters;
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
    let sx =
      Simplex.create ?workspace:simplex_workspace
        ~refactor_every:limits.refactor_every std
    in
    (* [par_counters]: the pivot counters of the parallel subtree
       workers, added to the root instance's own *)
    let finish ?(par_counters = []) outcome =
      if Obs.enabled () then
        List.iter
          (fun (name, v) -> Obs.count name v)
          (add_counters (Simplex.pivot_counters sx) par_counters);
      finish
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
        std; sx; limits; priority; heuristic; start; deadline; int_vars;
        incumbent = None;
        incumbent_obj = infinity;
        open_bounds = Hashtbl.create 64;
        next_node_id = 0;
        nodes = 0;
        numerical_prunes = 0;
        shared = None;
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
         ~eta_len:(Simplex.max_eta_length sx) ~gap_achieved:infinity
         ~audit:{ no_audit with farkas }
     | Simplex.Time_limit | Simplex.Iter_limit | Simplex.Numerical ->
       let out =
         match s.incumbent with
         | Some x -> Feasible ({ x; obj = Lp.restore_objective std s.incumbent_obj },
                               Lp.restore_objective std neg_infinity)
         | None -> No_incumbent None
       in
       finish out ~nodes:1 ~iters:(Simplex.iterations sx)
         ~refacs:(Simplex.refactorizations sx)
         ~etas:(Simplex.eta_applications sx)
         ~eta_len:(Simplex.max_eta_length sx) ~gap_achieved:infinity
         ~audit:no_audit
     | Simplex.Optimal | Simplex.Unbounded ->
       (* The incremental interface cannot return Unbounded; detect patched
          bounds explicitly via the solution magnitude. *)
       let root_x = Simplex.primal sx in
       if Array.exists (fun v -> Float.abs v > 1e9) (restore root_x) then
         finish Unbounded ~nodes:1 ~iters:(Simplex.iterations sx)
           ~refacs:(Simplex.refactorizations sx)
           ~etas:(Simplex.eta_applications sx)
           ~eta_len:(Simplex.max_eta_length sx) ~gap_achieved:infinity
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
         (* Root heuristic. *)
         (match heuristic with
          | Some h ->
            (match h root_x with Some cand -> ignore (offer s cand) | None -> ())
          | None -> ());
         let ( interrupted,
               proven_lb,
               support,
               par_iters,
               par_refacs,
               par_etas,
               par_counters ) =
           if jobs <= 1 then (
             try
               branch s 0;
               (* Search exhausted: the proof is complete up to numerical
                  prunes. *)
               if s.numerical_prunes = 0 then
                 (false, s.incumbent_obj, [| s.incumbent_obj |], 0, 0, 0,
                  [])
               else (false, root_bound, [| root_bound |], 0, 0, 0, [])
             with
             | Hit_limit ->
               (* The exception handlers along the unwind removed their
                  open_bounds entries, so the table only retains nodes above
                  the interrupt point (usually none): the provable bound
                  degrades towards the root bound. *)
               let glb = global_lower_bound s root_bound in
               (true, glb, bound_support s root_bound, 0, 0, 0, [])
             | Gap_reached (glb, support) ->
               (true, glb, support, 0, 0, 0, []))
           else parallel_search s ~root_bound ~jobs
         in
         (* A subtree abandoned on numerical trouble voids the exhaustive
            search: the bound falls back to the root bound and the claim
            is read exactly as after an interruption. *)
         let interrupted = interrupted || s.numerical_prunes > 0 in
         let iters = Simplex.iterations sx + par_iters in
         let refacs = Simplex.refactorizations sx + par_refacs in
         let etas = Simplex.eta_applications sx + par_etas in
         let eta_len = Simplex.max_eta_length sx in
         let lb_min = proven_lb in
         let audit glb_known =
           { no_audit with
             root_lp;
             bound_support = (if glb_known then support else [||]);
             proven_bound = (if glb_known then Some lb_min else None);
             numerical_prunes = s.numerical_prunes }
         in
         match s.incumbent with
         | None ->
           if interrupted then
             finish ~par_counters
               (No_incumbent (Some (Lp.restore_objective std lb_min)))
               ~nodes:s.nodes ~iters ~refacs ~etas ~eta_len
               ~gap_achieved:infinity ~audit:(audit true)
           else
             finish ~par_counters Infeasible ~nodes:s.nodes ~iters ~refacs
               ~etas ~eta_len ~gap_achieved:infinity ~audit:(audit false)
         | Some x ->
           let sol = { x; obj = Lp.restore_objective std s.incumbent_obj } in
           let g = rel_gap s.incumbent_obj lb_min in
           if (not interrupted) || g <= limits.gap then
             finish ~par_counters (Optimal sol) ~nodes:s.nodes ~iters ~refacs
               ~etas ~eta_len ~gap_achieved:(Float.max g 0.)
               ~audit:(audit true)
           else
             finish ~par_counters
               (Feasible (sol, Lp.restore_objective std lb_min))
               ~nodes:s.nodes ~iters ~refacs ~etas ~eta_len ~gap_achieved:g
               ~audit:(audit true)
       end)
