let pp_partitioning (inst : Instance.t) ppf (part : Partitioning.t) =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  Format.fprintf ppf "@[<v>";
  for s = 0 to part.Partitioning.num_sites - 1 do
    Format.fprintf ppf "=== Site %d ===@," (s + 1);
    List.iter
      (fun t ->
         Format.fprintf ppf "Transaction %s@,"
           (Workload.transaction wl t).Workload.t_name)
      (Partitioning.txns_on_site part s);
    let names =
      List.sort compare
        (List.map (fun a -> Schema.attr_name schema a)
           (Partitioning.attrs_on_site part s))
    in
    List.iter (fun n -> Format.fprintf ppf "%s@," n) names;
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let row_width_reduction (inst : Instance.t) (part : Partitioning.t) =
  let schema = inst.Instance.schema in
  List.init (Schema.num_tables schema) (fun tid ->
      let attrs = Schema.attrs_of_table schema tid in
      let full = Schema.row_width schema tid in
      (* average fraction width over the sites that hold any of the table *)
      let widths = ref [] in
      for s = 0 to part.Partitioning.num_sites - 1 do
        let w =
          List.fold_left
            (fun acc a ->
               if part.Partitioning.placed.(a).(s) then
                 acc + Schema.attr_width schema a
               else acc)
            0 attrs
        in
        if w > 0 then widths := float_of_int w :: !widths
      done;
      let avg =
        match !widths with
        | [] -> 0.
        | ws -> List.fold_left ( +. ) 0. ws /. float_of_int (List.length ws)
      in
      (Schema.table_name schema tid, full, avg))

let pp_solution_summary (inst : Instance.t) ~p ~lambda ppf part =
  let stats = Stats.compute inst ~p in
  let cost = Cost_model.cost stats part in
  let b = Cost_model.breakdown inst part in
  let work = Cost_model.site_work stats part in
  let replicated =
    let n = ref 0 in
    for a = 0 to Instance.num_attrs inst - 1 do
      if Partitioning.replicas part a > 1 then incr n
    done;
    !n
  in
  Format.fprintf ppf
    "@[<v>cost (objective 4)   : %.4g@,objective (6), l=%.2f: %.4g@,%a@,\
     replicated attrs     : %d / %d@,row width avg        :@,"
    cost lambda
    (Cost_model.objective stats ~lambda part)
    Cost_model.pp_breakdown b replicated (Instance.num_attrs inst);
  List.iter
    (fun (name, full, avg) ->
       if avg > 0. then
         Format.fprintf ppf "  %-12s %4d -> %7.1f bytes@," name full avg)
    (row_width_reduction inst part);
  ignore work;
  Format.fprintf ppf "@]"

let pp_diagnostics ppf ds =
  match ds with
  | [] -> Format.fprintf ppf "diagnostics: none"
  | ds ->
    Format.fprintf ppf "@[<v>diagnostics:@,%a@]"
      Vpart_analysis.Diagnostic.pp_report ds

let pp_sa_search ppf (s : Sa_solver.search_stats) =
  let rate =
    if s.Sa_solver.moves = 0 then 0.
    else
      float_of_int s.Sa_solver.accepted_moves /. float_of_int s.Sa_solver.moves
  in
  Format.fprintf ppf
    "@[<v>search: %d moves (%d accepted, %d rejected, %.1f%% acceptance)@,\
     cooling: %d epoch(s), temperature %.4g -> %.4g@]"
    s.Sa_solver.moves s.Sa_solver.accepted_moves s.Sa_solver.rejected_moves
    (100. *. rate) s.Sa_solver.epochs s.Sa_solver.initial_temperature
    s.Sa_solver.final_temperature

let pp_sa_chains ppf (chains : Sa_solver.search_stats array) =
  Format.fprintf ppf "@[<v>portfolio: %d chain(s)" (Array.length chains);
  Array.iteri
    (fun i (c : Sa_solver.search_stats) ->
       Format.fprintf ppf
         "@,  chain %d: %d moves (%d accepted), %d epoch(s), tau %.4g -> %.4g"
         i c.Sa_solver.moves c.Sa_solver.accepted_moves c.Sa_solver.epochs
         c.Sa_solver.initial_temperature c.Sa_solver.final_temperature)
    chains;
  Format.fprintf ppf "@]"

let pp_mip_kernel ppf (r : Qp_solver.result) =
  match r.Qp_solver.outcome with
  | Qp_solver.Too_large ->
    (* self-explaining refusal: the row count AND the cap it exceeded *)
    (match r.Qp_solver.row_limit with
     | Some limit ->
       Format.fprintf ppf
         "kernel: refused, %d model row(s) over the configured %d-row limit"
         r.Qp_solver.model_rows limit
     | None ->
       Format.fprintf ppf "kernel: refused at %d model row(s)"
         r.Qp_solver.model_rows)
  | _ ->
    Format.fprintf ppf
      "kernel: sparse LU, %d node(s) (%d closed at the cutoff), %d simplex \
       iteration(s), %d bound flip(s), %d basis update(s), %d row-eta \
       application(s), %d refactorization(s)"
      r.Qp_solver.nodes r.Qp_solver.cutoff_prunes r.Qp_solver.simplex_iters
      r.Qp_solver.bound_flips r.Qp_solver.lu_updates
      r.Qp_solver.eta_applications r.Qp_solver.refactorizations

let pp_certificate ppf cert =
  let module D = Vpart_analysis.Diagnostic in
  match cert with
  | None -> Format.fprintf ppf "certificate: not requested"
  | Some [] -> Format.fprintf ppf "certificate: all claims verified"
  | Some ds ->
    let e = D.count D.Error ds
    and w = D.count D.Warning ds
    and i = D.count D.Info ds in
    if e > 0 then
      Format.fprintf ppf
        "certificate: FAILED (%d error(s), %d warning(s), %d info) [%s]" e w i
        (String.concat " " (D.codes ds))
    else
      Format.fprintf ppf
        "certificate: verified with %d warning(s), %d info note(s) [%s]" w i
        (String.concat " " (D.codes ds))
