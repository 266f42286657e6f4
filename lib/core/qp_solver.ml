type options = {
  num_sites : int;
  p : float;
  lambda : float;
  allow_replication : bool;
  use_grouping : bool;
  time_limit : float;
  gap : float;
  max_rows : int option;
  latency : float option;
  fixed_txns : (int * int) list;
  certify : bool;
  certify_exact : bool;
  jobs : int;
  simplex_workspace : Simplex.Workspace.t option;
}

let default_options =
  {
    num_sites = 2;
    p = 8.;
    lambda = 0.1;
    allow_replication = true;
    use_grouping = true;
    time_limit = 60.;
    gap = 1e-3;
    max_rows = Some 32000;
    latency = None;
    fixed_txns = [];
    certify = false;
    certify_exact = false;
    jobs = 1;
    simplex_workspace = None;
  }

type outcome = Proved_optimal | Limit_feasible | Limit_no_solution | Too_large

type result = {
  outcome : outcome;
  partitioning : Partitioning.t option;
  cost : float option;
  objective6 : float option;
  bound : float option;
  elapsed : float;
  nodes : int;
  cutoff_prunes : int;
  simplex_iters : int;
  bound_flips : int;
  lu_updates : int;
  refactorizations : int;
  eta_applications : int;
  model_rows : int;
  model_cols : int;
  row_limit : int option;
  diagnostics : Vpart_analysis.Diagnostic.t list;
  certificate : Vpart_analysis.Diagnostic.t list option;
  exact : Vpart_certify.Certify.Exact.report option;
}

(* Layout bookkeeping shared by the builder, the rounding heuristic and the
   solution extractor. *)
type layout = {
  xv : Lp.var array array;               (* [t].(s) *)
  yv : Lp.var array array;               (* [a].(s) *)
  uv : (int * int * int, Lp.var) Hashtbl.t;  (* (t, a, s) -> var *)
  mv : Lp.var option;
  (* Appendix A latency indicators: one per write query, with the txn and
     the accessed attributes needed to recompute its value in heuristics. *)
  psiv : (Lp.var * int * int list) list;
}

(* The lexicographic site pinning is sound while the sites are fully
   interchangeable: every constraint family of the layout model
   (assignment, coverage, linearization, load, latency) treats sites
   identically, so any solution can be relabeled so transaction t's home
   site has index <= t (order sites by first transaction appearance).
   Pre-assigned transactions name concrete sites and destroy the
   invariance, so the pinning is off then.  [site_pinning_findings]
   checks this claim on the built model (C112). *)
let sites_interchangeable opts = opts.fixed_txns = []

let build_layout_model ?instance (stats : Stats.t) opts =
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  let lambda = opts.lambda in
  let m = Lp.create ~name:"vpart-qp" () in
  let pin_sym = sites_interchangeable opts in
  let xv =
    Array.init nt (fun t ->
        Array.init ns (fun s ->
            (* Lexicographic site ordering: x_{t,s} = 0 for s > t.  Fixing
               the variable's bounds (rather than adding ordering rows)
               keeps the row count unchanged. *)
            if pin_sym && s > t then
              Lp.add_var m
                ~name:(Printf.sprintf "x_%d_%d" t s)
                ~lb:0. ~ub:0. ~integer:true ()
            else Lp.binary m ~name:(Printf.sprintf "x_%d_%d" t s) ()))
  in
  let yv =
    Array.init na (fun a ->
        Array.init ns (fun s ->
            Lp.binary m ~name:(Printf.sprintf "y_%d_%d" a s) ()))
  in
  let uv = Hashtbl.create 256 in
  (* Objective accumulators. *)
  let obj_terms = ref [] and obj_const = ref 0. in
  let push c v = if c <> 0. then obj_terms := (c, v) :: !obj_terms in
  (* Load-constraint accumulators: one term list per site. *)
  let balancing = lambda < 1. in
  let load_terms = Array.make ns [] in
  let push_load s c v = if c <> 0. then load_terms.(s) <- (c, v) :: load_terms.(s) in
  (* x assignment and y coverage. *)
  for t = 0 to nt - 1 do
    Lp.add_constr m (List.init ns (fun s -> (1., xv.(t).(s)))) Lp.Eq 1.
  done;
  (* Pre-assigned transactions (iterative 20/80 solver, paper sec. 4). *)
  List.iter
    (fun (t, site) ->
       if t < 0 || t >= nt || site < 0 || site >= ns then
         invalid_arg "Qp_solver: fixed_txns out of range";
       Lp.add_constr m [ (1., xv.(t).(site)) ] Lp.Eq 1.)
    opts.fixed_txns;
  for a = 0 to na - 1 do
    let cmp = if opts.allow_replication then Lp.Ge else Lp.Eq in
    Lp.add_constr m (List.init ns (fun s -> (1., yv.(a).(s)))) cmp 1.
  done;
  (* Single-sitedness and the quadratic terms. *)
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      let c1 = stats.Stats.c1.{t, a} and c3 = stats.Stats.c3.{t, a} in
      if stats.Stats.phi.(t).(a) then begin
        (* y >= x at every site; x·y == x, summed over sites == 1. *)
        for s = 0 to ns - 1 do
          Lp.add_constr m [ (1., yv.(a).(s)); (-1., xv.(t).(s)) ] Lp.Ge 0.
        done;
        obj_const := !obj_const +. (lambda *. c1);
        if balancing then
          for s = 0 to ns - 1 do
            push_load s c3 xv.(t).(s)
          done
      end
      else begin
        let needs_obj = c1 <> 0. in
        let needs_load = balancing && c3 > 0. in
        if needs_obj || needs_load then begin
          let push_lower = (lambda *. c1 > 0.) || needs_load in
          let push_upper = lambda *. c1 < 0. in
          for s = 0 to ns - 1 do
            let u =
              Lp.add_var m
                ~name:(Printf.sprintf "u_%d_%d_%d" t a s)
                ~lb:0. ~ub:1. ()
            in
            Hashtbl.replace uv (t, a, s) u;
            push (lambda *. c1) u;
            if needs_load then push_load s c3 u;
            if push_lower then
              (* u >= x + y - 1 *)
              Lp.add_constr m
                [ (1., u); (-1., xv.(t).(s)); (-1., yv.(a).(s)) ]
                Lp.Ge (-1.);
            if push_upper then begin
              Lp.add_constr m [ (1., u); (-1., xv.(t).(s)) ] Lp.Le 0.;
              Lp.add_constr m [ (1., u); (-1., yv.(a).(s)) ] Lp.Le 0.
            end
          done
        end
      end
    done
  done;
  (* y objective and load contributions. *)
  for a = 0 to na - 1 do
    let c2 = stats.Stats.c2.(a) and c4 = stats.Stats.c4.(a) in
    for s = 0 to ns - 1 do
      push (lambda *. c2) yv.(a).(s);
      if balancing then push_load s c4 yv.(a).(s)
    done
  done;
  (* Load balancing: work(s) <= m_var. *)
  let mv =
    if balancing then begin
      let work_ub =
        Vec.mat_sum stats.Stats.c3
        +. Array.fold_left ( +. ) 0. stats.Stats.c4
      in
      let v = Lp.add_var m ~name:"maxload" ~lb:0. ~ub:(Float.max 1. work_ub) () in
      for s = 0 to ns - 1 do
        if load_terms.(s) <> [] then
          Lp.add_constr m ((-1., v) :: load_terms.(s)) Lp.Le 0.
      done;
      push (1. -. lambda) v;
      Some v
    end
    else None
  in
  (* Appendix A: network-latency indicators for write queries.  ψ_q is
     forced to 1 when query q updates an attribute replicated away from its
     transaction's home site: ψ_q >= y_{a,s} - x_{t,s}.  At integral points
     this is exactly the appendix's quadratic condition, linearized tightly
     without extra integer variables (minimization keeps ψ at the bound). *)
  let psiv =
    match opts.latency, instance with
    | Some pl, Some (inst : Instance.t) ->
      let wl = inst.Instance.workload in
      let out = ref [] in
      for t = 0 to Workload.num_transactions wl - 1 do
        List.iter
          (fun qid ->
             let q = Workload.query wl qid in
             if Workload.is_write q then begin
               let psi =
                 Lp.add_var m ~name:(Printf.sprintf "psi_%d" qid) ~lb:0. ~ub:1. ()
               in
               List.iter
                 (fun a ->
                    for s = 0 to ns - 1 do
                      Lp.add_constr m
                        [ (1., psi); (-1., yv.(a).(s)); (1., xv.(t).(s)) ]
                        Lp.Ge 0.
                    done)
                 q.Workload.attrs;
               push (lambda *. pl *. q.Workload.freq) psi;
               out := (psi, t, q.Workload.attrs) :: !out
             end)
          (Workload.transaction wl t).Workload.queries
      done;
      !out
    | _ -> []
  in
  Lp.set_objective m Lp.Minimize ~constant:!obj_const !obj_terms;
  (m, { xv; yv; uv; mv; psiv })

let build_model stats opts =
  let m, layout = build_layout_model stats opts in
  (m, (layout.xv, layout.yv))

(* C112 over a built model: x, y and u move with their site; maxload and
   the latency indicators are site-free. *)
let site_pinning_findings opts model std layout =
  let ns = opts.num_sites in
  let u_families =
    Hashtbl.fold
      (fun (t, a, s) _ acc ->
         if s > 0 then acc
         else Array.init ns (fun s -> Hashtbl.find layout.uv (t, a, s)) :: acc)
      layout.uv []
  in
  Vpart_certify.Certify.certify_site_pinning ~var_name:(Lp.var_name model)
    ~sites:ns ~assign:layout.xv
    ~families:(Array.to_list layout.yv @ u_families)
    std

let certify_site_pinning ?instance stats opts =
  let model, layout = build_layout_model ?instance stats opts in
  site_pinning_findings opts model (Lp.standardize model) layout

(* Extract a Partitioning.t (reduced space) from a structural assignment. *)
let partitioning_of_point (stats : Stats.t) opts layout point =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let part =
    Partitioning.create ~num_sites:opts.num_sites ~num_txns:nt ~num_attrs:na
  in
  for t = 0 to nt - 1 do
    let best = ref 0 and best_v = ref neg_infinity in
    for s = 0 to opts.num_sites - 1 do
      let v = point.(layout.xv.(t).(s)) in
      if v > !best_v then begin
        best := s;
        best_v := v
      end
    done;
    part.Partitioning.txn_site.(t) <- !best
  done;
  for a = 0 to na - 1 do
    for s = 0 to opts.num_sites - 1 do
      part.Partitioning.placed.(a).(s) <- point.(layout.yv.(a).(s)) > 0.5
    done
  done;
  part

(* Relabel a partitioning's sites by first-transaction-appearance order so
   it satisfies the lexicographic pinning; a no-op when the pinning is off.
   Site permutations leave cost, load and latency invariant, so the
   relabeled partitioning is the same solution under canonical names. *)
let canonicalize_sites opts (part : Partitioning.t) =
  if sites_interchangeable opts then begin
    let ns = opts.num_sites in
    let map = Array.make ns (-1) in
    let next = ref 0 in
    Array.iter
      (fun s ->
         if map.(s) < 0 then begin
           map.(s) <- !next;
           incr next
         end)
      part.Partitioning.txn_site;
    for s = 0 to ns - 1 do
      if map.(s) < 0 then begin
        map.(s) <- !next;
        incr next
      end
    done;
    Array.iteri
      (fun t s -> part.Partitioning.txn_site.(t) <- map.(s))
      part.Partitioning.txn_site;
    Array.iter
      (fun row ->
         let permuted = Array.make ns false in
         Array.iteri (fun s v -> if v then permuted.(map.(s)) <- true) row;
         Array.blit permuted 0 row 0 ns)
      part.Partitioning.placed
  end

(* Rounding-repair primal heuristic: derive a feasible partitioning from a
   fractional relaxation point, then encode it back as a full variable
   assignment for the MIP to vet. *)
let rec rounding_heuristic (stats : Stats.t) opts layout ncols point =
  let part = partitioning_of_point stats opts layout point in
  if opts.allow_replication then
    Partitioning.repair_single_sitedness stats part
  else begin
    (* Disjoint mode: exactly one site per attribute.  Prefer the home of a
       reading transaction (required for feasibility), else the best y. *)
    let nt = stats.Stats.num_txns in
    for a = 0 to stats.Stats.num_attrs - 1 do
      let forced = ref None in
      for t = 0 to nt - 1 do
        if stats.Stats.phi.(t).(a) && !forced = None then
          forced := Some part.Partitioning.txn_site.(t)
      done;
      let chosen =
        match !forced with
        | Some s -> s
        | None ->
          let best = ref 0 and best_v = ref neg_infinity in
          for s = 0 to opts.num_sites - 1 do
            let v = point.(layout.yv.(a).(s)) in
            if v > !best_v then begin
              best := s;
              best_v := v
            end
          done;
          !best
      in
      Array.fill part.Partitioning.placed.(a) 0 opts.num_sites false;
      part.Partitioning.placed.(a).(chosen) <- true
    done
  end;
  canonicalize_sites opts part;
  Some (encode_assignment stats opts layout ncols part)

(* Encode a (reduced-space) partitioning as a full MIP variable vector. *)
and encode_assignment (stats : Stats.t) opts layout ncols
    (part : Partitioning.t) =
  let out = Array.make ncols 0. in
  for t = 0 to stats.Stats.num_txns - 1 do
    for s = 0 to opts.num_sites - 1 do
      out.(layout.xv.(t).(s)) <-
        (if part.Partitioning.txn_site.(t) = s then 1. else 0.)
    done
  done;
  for a = 0 to stats.Stats.num_attrs - 1 do
    for s = 0 to opts.num_sites - 1 do
      out.(layout.yv.(a).(s)) <-
        (if part.Partitioning.placed.(a).(s) then 1. else 0.)
    done
  done;
  Hashtbl.iter
    (fun (t, a, s) u ->
       out.(u) <-
         (if part.Partitioning.txn_site.(t) = s
             && part.Partitioning.placed.(a).(s)
          then 1.
          else 0.))
    layout.uv;
  (match layout.mv with
   | Some v -> out.(v) <- Cost_model.max_site_work stats part
   | None -> ());
  List.iter
    (fun (psi, t, attrs) ->
       let home = part.Partitioning.txn_site.(t) in
       let remote =
         List.exists
           (fun a ->
              let row = part.Partitioning.placed.(a) in
              let hit = ref false in
              Array.iteri (fun s v -> if v && s <> home then hit := true) row;
              !hit)
           attrs
       in
       out.(psi) <- (if remote then 1. else 0.))
    layout.psiv;
  out

let solve ?(options = default_options) (inst : Instance.t) =
  Obs.with_span "qp.solve" @@ fun () ->
  let start = Obs.Clock.now () in
  let grouping =
    Obs.with_span "qp.grouping" (fun () ->
        if options.use_grouping then Grouping.compute inst
        else Grouping.identity inst)
  in
  let reduced = grouping.Grouping.reduced in
  let stats, full_stats =
    Obs.with_span "qp.stats" (fun () ->
        (Stats.compute reduced ~p:options.p, Stats.compute inst ~p:options.p))
  in
  let model, layout =
    (* The Lp layer rejects non-finite data at construction time; surface
       such a failure through the same diagnostic channel as the lint gate
       below so callers have a single refusal contract. *)
    Obs.with_span "qp.build_model" (fun () ->
        try build_layout_model ~instance:reduced stats options
        with Invalid_argument msg ->
          raise
            (Vpart_analysis.Diagnostic.Errors
               [ Vpart_analysis.Diagnostic.error ~code:"M012"
                   "model construction rejected corrupted statistics: %s" msg ]))
  in
  (* Static analysis gate: refuse to hand a model with Error-level findings
     to branch-and-bound (raises Diagnostic.Errors); keep the rest for the
     caller's report. *)
  let std = Lp.standardize model in
  let diagnostics =
    Vpart_analysis.Model_lint.assert_clean ~var_name:(Lp.var_name model) std
  in
  let ncols = Lp.num_vars model in
  let priority v =
    (* branch on x before y before (continuous) u/m *)
    let nt = stats.Stats.num_txns and ns = options.num_sites in
    if v < nt * ns then 2
    else if v < (nt * ns) + (stats.Stats.num_attrs * ns) then 1
    else 0
  in
  let heuristic point = rounding_heuristic stats options layout ncols point in
  let limits =
    {
      Mip.time_limit = Some options.time_limit;
      node_limit = None;
      gap = options.gap;
      max_rows = options.max_rows;
    }
  in
  let mip_outcome, mip_stats =
    Mip.solve ~limits ~priority ~heuristic
      ~jobs:(max 1 options.jobs)
      ?simplex_workspace:options.simplex_workspace model
  in
  let elapsed = Obs.Clock.now () -. start in
  let finish outcome partitioning_reduced bound =
    let partitioning = Option.map (Grouping.expand grouping) partitioning_reduced in
    let cost = Option.map (Cost_model.cost full_stats) partitioning in
    let objective6 =
      let latency = Option.map (fun pl -> (inst, pl)) options.latency in
      Option.map
        (Cost_model.objective ?latency full_stats ~lambda:options.lambda)
        partitioning
    in
    let claimed_obj6 =
      match mip_outcome with
      | Mip.Optimal sol | Mip.Feasible (sol, _) -> Some sol.Mip.obj
      | _ -> None
    in
    (* The decoded partitioning's claims re-evaluated straight from the
       instance (Cost_model.breakdown), bypassing the Stats coefficients
       the model was built from, at the MIP checks' float tolerance. *)
    let domain_certs, domain_exact =
      match (partitioning, cost, claimed_obj6) with
      | Some part, Some cost, Some objective6
        when options.certify || options.certify_exact ->
        Solution_certify.certify_claims
          ~tol:Vpart_certify.Certify.default_options.Vpart_certify.Certify.tol
          ~exact:options.certify_exact ?latency:options.latency
          ~fixed:options.fixed_txns inst full_stats ~p:options.p
          ~lambda:options.lambda part ~cost ~objective6
      | _ -> ([], None)
    in
    let certificate =
      if not options.certify then None
      else Obs.with_span "qp.certify" @@ fun () -> begin
        (* Independent certification of every claim this solve made: the
           MIP-level checks re-derive feasibility/bounds/duality from the
           model and the returned artifacts. *)
        let mip_certs =
          Vpart_certify.Certify.certify_mip ~gap:options.gap
            ~var_name:(Lp.var_name model) model mip_outcome mip_stats
        in
        let pin_certs =
          if sites_interchangeable options then
            site_pinning_findings options model std layout
          else []
        in
        Some
          (Vpart_analysis.Diagnostic.sort (mip_certs @ pin_certs @ domain_certs))
      end
    in
    let exact =
      if not options.certify_exact then None
      else
        (* Tolerance-free re-verification of the same claims in rational
           arithmetic (E-codes), paired with the float verdicts at the
           default tolerance. *)
        let module Exact = Vpart_certify.Certify.Exact in
        let mip_exact =
          Exact.audit ~gap:options.gap
            ~var_name:(Lp.var_name model) model mip_outcome mip_stats
        in
        Some
          (Exact.merge mip_exact (Option.value domain_exact ~default:Exact.empty))
    in
    {
      outcome;
      partitioning;
      cost;
      objective6;
      bound;
      elapsed;
      nodes = mip_stats.Mip.nodes;
      cutoff_prunes = mip_stats.Mip.cutoff_prunes;
      simplex_iters = mip_stats.Mip.simplex_iterations;
      bound_flips = mip_stats.Mip.bound_flips;
      lu_updates = mip_stats.Mip.lu_updates;
      refactorizations = mip_stats.Mip.refactorizations;
      eta_applications = mip_stats.Mip.eta_applications;
      model_rows = Lp.num_constrs model;
      model_cols = ncols;
      row_limit = options.max_rows;
      diagnostics;
      certificate;
      exact;
    }
  in
  match mip_outcome with
  | Mip.Optimal sol ->
    let part = partitioning_of_point stats options layout sol.Mip.x in
    finish Proved_optimal (Some part) (Some sol.Mip.obj)
  | Mip.Feasible (sol, bound) ->
    let part = partitioning_of_point stats options layout sol.Mip.x in
    finish Limit_feasible (Some part) (Some bound)
  | Mip.No_incumbent bound -> finish Limit_no_solution None bound
  | Mip.Too_large _ -> finish Too_large None None
  | Mip.Infeasible | Mip.Unbounded ->
    (* The model is always feasible and bounded; reaching here indicates a
       numerical failure inside the LP solver.  Report as no-solution. *)
    finish Limit_no_solution None None
