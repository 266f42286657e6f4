type breakdown = {
  read_local : float;
  write_local : float;
  transfer : float;
  site_work : float array;
}

let cost (stats : Stats.t) (part : Partitioning.t) =
  let acc = ref 0. in
  (* quadratic part: for each transaction only its home site matters *)
  for tx = 0 to stats.Stats.num_txns - 1 do
    let home = part.Partitioning.txn_site.(tx) in
    let c1 = stats.Stats.c1 in
    for a = 0 to stats.Stats.num_attrs - 1 do
      if part.Partitioning.placed.(a).(home) then acc := !acc +. c1.{tx, a}
    done
  done;
  (* linear part *)
  for a = 0 to stats.Stats.num_attrs - 1 do
    let c2a = stats.Stats.c2.(a) in
    if c2a <> 0. then begin
      let row = part.Partitioning.placed.(a) in
      for s = 0 to part.Partitioning.num_sites - 1 do
        if row.(s) then acc := !acc +. c2a
      done
    end
  done;
  !acc

let site_work (stats : Stats.t) (part : Partitioning.t) =
  let work = Array.make part.Partitioning.num_sites 0. in
  for tx = 0 to stats.Stats.num_txns - 1 do
    let home = part.Partitioning.txn_site.(tx) in
    let c3 = stats.Stats.c3 in
    for a = 0 to stats.Stats.num_attrs - 1 do
      if part.Partitioning.placed.(a).(home) then
        work.(home) <- work.(home) +. c3.{tx, a}
    done
  done;
  for a = 0 to stats.Stats.num_attrs - 1 do
    let c4a = stats.Stats.c4.(a) in
    if c4a <> 0. then begin
      let row = part.Partitioning.placed.(a) in
      for s = 0 to part.Partitioning.num_sites - 1 do
        if row.(s) then work.(s) <- work.(s) +. c4a
      done
    end
  done;
  work

let max_site_work stats part =
  Array.fold_left Float.max 0. (site_work stats part)

let breakdown (inst : Instance.t) (part : Partitioning.t) =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  let read_local = ref 0. and write_local = ref 0. and transfer = ref 0. in
  let site_work = Array.make part.Partitioning.num_sites 0. in
  for tx = 0 to Workload.num_transactions wl - 1 do
    let home = part.Partitioning.txn_site.(tx) in
    let txn = Workload.transaction wl tx in
    List.iter
      (fun qid ->
         let q = Workload.query wl qid in
         if Workload.is_write q then begin
           (* AW: pay every attribute of touched tables on every replica *)
           List.iter
             (fun (table, rows) ->
                List.iter
                  (fun a ->
                     let wa =
                       float_of_int (Schema.attr_width schema a)
                       *. q.Workload.freq *. rows
                     in
                     let row = part.Partitioning.placed.(a) in
                     for s = 0 to part.Partitioning.num_sites - 1 do
                       if row.(s) then begin
                         write_local := !write_local +. wa;
                         site_work.(s) <- site_work.(s) +. wa
                       end
                     done)
                  (Schema.attrs_of_table schema table))
             q.Workload.tables;
           (* B: updated attributes shipped to non-home replicas *)
           List.iter
             (fun a ->
                let wa = Stats.w inst ~a ~q:qid in
                let row = part.Partitioning.placed.(a) in
                for s = 0 to part.Partitioning.num_sites - 1 do
                  if row.(s) && s <> home then transfer := !transfer +. wa
                done)
             q.Workload.attrs
         end
         else
           (* AR: whole local fractions of touched tables at the home site *)
           List.iter
             (fun (table, rows) ->
                List.iter
                  (fun a ->
                     if part.Partitioning.placed.(a).(home) then begin
                       let wa =
                         float_of_int (Schema.attr_width schema a)
                         *. q.Workload.freq *. rows
                       in
                       read_local := !read_local +. wa;
                       site_work.(home) <- site_work.(home) +. wa
                     end)
                  (Schema.attrs_of_table schema table))
             q.Workload.tables)
      txn.Workload.queries
  done;
  {
    read_local = !read_local;
    write_local = !write_local;
    transfer = !transfer;
    site_work;
  }

let latency (inst : Instance.t) ~pl (part : Partitioning.t) =
  let wl = inst.Instance.workload in
  let total = ref 0. in
  for tx = 0 to Workload.num_transactions wl - 1 do
    let home = part.Partitioning.txn_site.(tx) in
    let txn = Workload.transaction wl tx in
    List.iter
      (fun qid ->
         let q = Workload.query wl qid in
         if Workload.is_write q then begin
           let remote = ref false in
           List.iter
             (fun a ->
                let row = part.Partitioning.placed.(a) in
                for s = 0 to part.Partitioning.num_sites - 1 do
                  if row.(s) && s <> home then remote := true
                done)
             q.Workload.attrs;
           if !remote then total := !total +. q.Workload.freq
         end)
      txn.Workload.queries
  done;
  pl *. !total

let objective ?latency:lat stats ~lambda part =
  (lambda *. cost stats part)
  +. ((1. -. lambda) *. max_site_work stats part)
  +.
  match lat with
  | None -> 0.
  | Some (inst, pl) -> lambda *. latency inst ~pl part

let pp_breakdown ppf b =
  Format.fprintf ppf
    "@[<v>read local   : %12.0f bytes@,write local  : %12.0f bytes@,\
     transfer     : %12.0f bytes@,site work    : @[<h>%a@]@]"
    b.read_local b.write_local b.transfer
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf w ->
         Format.fprintf ppf "%.0f" w))
    (Array.to_list b.site_work)
