type options = {
  qp : Qp_solver.options;
  rounds : int;
  first_fraction : float;
}

let default_options =
  { qp = Qp_solver.default_options; rounds = 4; first_fraction = 0.2 }

type round_info = {
  txns_considered : int;
  outcome : Qp_solver.outcome;
  elapsed : float;
  pins_violated : int;
}

type result = {
  outcome : Qp_solver.outcome;
  partitioning : Partitioning.t option;
  cost : float option;
  objective6 : float option;
  elapsed : float;
  rounds : round_info list;
  diagnostics : Vpart_analysis.Diagnostic.t list;
  certificate : Vpart_analysis.Diagnostic.t list option;
  exact : Vpart_certify.Certify.Exact.report option;
}

let transaction_weights (inst : Instance.t) =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  Array.init (Workload.num_transactions wl) (fun t ->
      List.fold_left
        (fun acc qid ->
           let q = Workload.query wl qid in
           acc
           +. (q.Workload.freq
               *. List.fold_left
                    (fun a (tbl, rows) ->
                       a +. (float_of_int (Schema.row_width schema tbl) *. rows))
                    0. q.Workload.tables))
        0.
        (Workload.transaction wl t).Workload.queries)

(* Cumulative batch sizes: first ~first_fraction of the transactions, the
   rest split evenly over the remaining rounds.  Always ends at nt. *)
let batch_sizes ~nt ~rounds ~first_fraction =
  let rounds = max 1 rounds in
  if rounds = 1 || nt <= 1 then [ nt ]
  else begin
    let first = max 1 (int_of_float (Float.round (first_fraction *. float_of_int nt))) in
    let first = min first nt in
    let remaining = nt - first in
    let steps = rounds - 1 in
    let sizes = ref [ first ] and acc = ref first in
    for k = 1 to steps do
      let target = first + (remaining * k / steps) in
      if target > !acc then begin
        sizes := target :: !sizes;
        acc := target
      end
    done;
    List.rev !sizes
  end

let solve ?(options = default_options) (inst : Instance.t) =
  Obs.with_span "iter.solve" @@ fun () ->
  let start = Obs.Clock.now () in
  let nt = Instance.num_transactions inst in
  let weights = transaction_weights inst in
  let order =
    List.sort
      (fun a b -> compare (weights.(b), a) (weights.(a), b))
      (List.init nt Fun.id)
  in
  let order = Array.of_list order in
  let sizes = batch_sizes ~nt ~rounds:options.rounds
      ~first_fraction:options.first_fraction
  in
  let per_round_limit =
    options.qp.Qp_solver.time_limit /. float_of_int (List.length sizes)
  in
  let rounds_info = ref [] in
  (* previous round's assignments, indexed by position in [order] *)
  let fixed = ref [] in
  let final : Qp_solver.result option ref = ref None in
  let failed = ref false in
  let pin_findings = ref [] in
  let round_no = ref 0 in
  List.iter
    (fun size ->
       if not !failed then begin
         incr round_no;
         Obs.with_span "iter.round"
           ~attrs:[ ("round", Obs.Int !round_no); ("txns", Obs.Int size) ]
         @@ fun () ->
         let ids = List.init size (fun i -> order.(i)) in
         let sub = Instance.restrict_transactions inst ids in
         let qp_opts =
           { options.qp with
             Qp_solver.fixed_txns = !fixed;
             time_limit = per_round_limit;
           }
         in
         let r = Qp_solver.solve ~options:qp_opts sub in
         (* Certify the batch contract: the transactions pinned from the
            previous rounds must come back on their pinned sites. *)
         let pins_violated =
           match r.Qp_solver.partitioning with
           | Some part when options.qp.Qp_solver.certify ->
             let bad = Solution_certify.certify_pins ~fixed:!fixed part in
             pin_findings := !pin_findings @ bad;
             List.length bad
           | _ -> 0
         in
         rounds_info :=
           { txns_considered = size;
             outcome = r.Qp_solver.outcome;
             elapsed = r.Qp_solver.elapsed;
             pins_violated }
           :: !rounds_info;
         (match r.Qp_solver.partitioning with
          | Some part ->
            fixed :=
              List.init size (fun i -> (i, part.Partitioning.txn_site.(i)));
            final := Some r
          | None -> failed := true)
       end)
    sizes;
  let elapsed = Obs.Clock.now () -. start in
  match !final with
  | Some r when not !failed ->
    (* Map the final partitioning's transaction order back to the original
       indices (attributes are untouched by the restriction). *)
    let mapped =
      Option.map
        (fun (part : Partitioning.t) ->
           let out = Partitioning.copy part in
           Array.iteri
             (fun pos site -> out.Partitioning.txn_site.(order.(pos)) <- site)
             part.Partitioning.txn_site;
           out)
        r.Qp_solver.partitioning
    in
    (* Replica polish through the O(Δ) evaluator: the batched rounds fix
       transactions incrementally, so the final replica set can carry
       leftovers from early rounds.  First-improvement flips on the full
       annealed objective (objective (6) plus the Appendix-A latency term
       when configured) clean those up.  Pure y-moves keep the pins and
       the transaction mapping intact; dropping a replica is only legal
       when the attribute keeps coverage and no φ-reader is homed on the
       dropped site, which the evaluator's replica and [forced] counts
       tell.  Bounded to two sweeps over (attribute, site). *)
    let polished =
      match mapped with
      | Some part
        when options.qp.Qp_solver.allow_replication
             && options.qp.Qp_solver.num_sites > 1 ->
        Obs.with_span "iter.polish" @@ fun () ->
        let stats = Stats.compute inst ~p:options.qp.Qp_solver.p in
        let lambda = options.qp.Qp_solver.lambda in
        let latency =
          Option.map (fun pl -> (inst, pl)) options.qp.Qp_solver.latency
        in
        let dc = Delta_cost.create ?latency stats ~lambda part in
        let forced = Delta_cost.forced dc in
        let changed = ref false and improved = ref true and pass = ref 0 in
        while !improved && !pass < 2 do
          improved := false;
          incr pass;
          for a = 0 to stats.Stats.num_attrs - 1 do
            for s = 0 to part.Partitioning.num_sites - 1 do
              let legal =
                (not part.Partitioning.placed.(a).(s))
                || (Delta_cost.replicas dc a > 1 && forced.(s).(a) = 0)
              in
              if legal then begin
                let before = Delta_cost.objective dc in
                let tol = 1e-9 *. (1. +. Float.abs before) in
                Delta_cost.flip dc a s;
                if Delta_cost.objective dc -. before < -.tol then begin
                  Delta_cost.commit dc;
                  improved := true;
                  changed := true
                end
                else Delta_cost.undo_move dc
              end
            done
          done
        done;
        if !changed then Some (stats, dc) else None
      | _ -> None
    in
    (* [mapped] is the partitioning wrapped by the evaluator, mutated in
       place, so it already carries the polished layout; the reported
       numbers are re-derived from the unchanged Cost_model, never from
       the delta caches. *)
    let cost, objective6, polish_certs, polish_exact =
      match polished with
      | None -> (r.Qp_solver.cost, r.Qp_solver.objective6, [], None)
      | Some (stats, dc) ->
        let { Qp_solver.p; lambda; latency; certify; certify_exact; _ } =
          options.qp
        in
        let part = Delta_cost.partitioning dc in
        let cost = Cost_model.cost stats part in
        let obj6 =
          Cost_model.objective
            ?latency:(Option.map (fun pl -> (inst, pl)) latency)
            stats ~lambda part
        in
        (* The local-search polish re-claims the cost/objective; certify
           the polished layout, not just the QP round's, at the QP
           rounds' tolerance. *)
        let certs, exact =
          if not (certify || certify_exact) then ([], None)
          else
            Solution_certify.certify_claims
              ~tol:Vpart_certify.Certify.default_options.Vpart_certify.Certify.tol
              ~exact:certify_exact ?latency inst stats ~p ~lambda part ~cost
              ~objective6:obj6
        in
        (Some cost, Some obj6, certs, exact)
    in
    let certificate =
      if not options.qp.Qp_solver.certify then None
      else
        Some
          (Vpart_analysis.Diagnostic.sort
             (!pin_findings @ polish_certs
              @ Option.value r.Qp_solver.certificate ~default:[]))
    in
    let exact =
      if not options.qp.Qp_solver.certify_exact then None
      else
        let base =
          Option.value r.Qp_solver.exact
            ~default:Vpart_certify.Certify.Exact.empty
        in
        Some
          (match polish_exact with
           | None -> base
           | Some e -> Vpart_certify.Certify.Exact.merge base e)
    in
    {
      outcome = r.Qp_solver.outcome;
      partitioning = mapped;
      cost;
      objective6;
      elapsed;
      rounds = List.rev !rounds_info;
      diagnostics = r.Qp_solver.diagnostics;
      certificate;
      exact;
    }
  | _ ->
    {
      outcome = Qp_solver.Limit_no_solution;
      partitioning = None;
      cost = None;
      objective6 = None;
      elapsed;
      rounds = List.rev !rounds_info;
      diagnostics = [];
      certificate =
        (if options.qp.Qp_solver.certify then
           Some (Vpart_analysis.Diagnostic.sort !pin_findings)
         else None);
      exact = None;
    }
