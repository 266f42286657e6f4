type t = {
  original : Instance.t;
  reduced : Instance.t;
  group_of_attr : int array;
  members : int array array;
}

let num_groups t = Array.length t.members

(* Signature of an attribute: which queries access it directly (alpha).
   beta is table-level and therefore constant within a table. *)
let access_signature (inst : Instance.t) =
  let na = Instance.num_attrs inst in
  let sig_ = Array.make na [] in
  let wl = inst.Instance.workload in
  for q = Workload.num_queries wl - 1 downto 0 do
    List.iter
      (fun a -> sig_.(a) <- q :: sig_.(a))
      (Workload.query wl q).Workload.attrs
  done;
  sig_

let compute (inst : Instance.t) =
  let schema = inst.Instance.schema in
  let na = Schema.num_attrs schema in
  let sig_ = access_signature inst in
  let group_of_attr = Array.make na (-1) in
  let size = Array.make na 0 (* at most one group per attribute *) in
  let next_group = ref 0 in
  (* Group within each table by signature, preserving attribute order. *)
  for tid = 0 to Schema.num_tables schema - 1 do
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun a ->
         let g =
           match Hashtbl.find_opt tbl sig_.(a) with
           | Some g -> g
           | None ->
             let g = !next_group in
             incr next_group;
             Hashtbl.add tbl sig_.(a) g;
             g
         in
         group_of_attr.(a) <- g;
         size.(g) <- size.(g) + 1)
      (Schema.attrs_of_table schema tid)
  done;
  (* Members from [group_of_attr] in one pass over the tables'
     attributes, so each group lists them in table order. *)
  let members = Array.init !next_group (fun g -> Array.make size.(g) 0) in
  let filled = Array.make !next_group 0 in
  for tid = 0 to Schema.num_tables schema - 1 do
    List.iter
      (fun a ->
         let g = group_of_attr.(a) in
         members.(g).(filled.(g)) <- a;
         filled.(g) <- filled.(g) + 1)
      (Schema.attrs_of_table schema tid)
  done;
  (* Reduced schema: one pseudo-attribute per group, width = sum. *)
  let spec =
    List.init (Schema.num_tables schema) (fun tid ->
        let groups =
          List.sort_uniq compare
            (List.map (fun a -> group_of_attr.(a)) (Schema.attrs_of_table schema tid))
        in
        ( Schema.table_name schema tid,
          List.map
            (fun g ->
               let width =
                 Array.fold_left
                   (fun acc a -> acc + Schema.attr_width schema a)
                   0 members.(g)
               in
               let name =
                 if Array.length members.(g) = 1 then
                   (inst.Instance.schema.Schema.attributes.(members.(g).(0)))
                     .Schema.attr_name
                 else
                   Printf.sprintf "grp%d(%d attrs)" g (Array.length members.(g))
               in
               (name, width))
            groups ))
  in
  let reduced_schema = Schema.make spec in
  (* Group ids coincide with reduced attribute ids because groups are
     created in table order and attribute order within tables. *)
  let wl = inst.Instance.workload in
  let queries =
    List.init (Workload.num_queries wl) (fun qid ->
        let q = Workload.query wl qid in
        { q with
          Workload.attrs =
            List.sort_uniq compare
              (List.map (fun a -> group_of_attr.(a)) q.Workload.attrs);
        })
  in
  let transactions =
    List.init (Workload.num_transactions wl) (fun tid -> Workload.transaction wl tid)
  in
  let reduced_wl = Workload.make ~queries ~transactions in
  let reduced =
    Instance.make ~name:(inst.Instance.name ^ "/grouped") reduced_schema reduced_wl
  in
  { original = inst; reduced; group_of_attr; members }

let identity (inst : Instance.t) =
  let na = Instance.num_attrs inst in
  {
    original = inst;
    reduced = inst;
    group_of_attr = Array.init na (fun a -> a);
    members = Array.init na (fun a -> [| a |]);
  }

let expand t (part : Partitioning.t) =
  let na = Instance.num_attrs t.original in
  let out =
    Partitioning.create ~num_sites:part.Partitioning.num_sites
      ~num_txns:(Array.length part.Partitioning.txn_site)
      ~num_attrs:na
  in
  Array.blit part.Partitioning.txn_site 0 out.Partitioning.txn_site 0
    (Array.length part.Partitioning.txn_site);
  for a = 0 to na - 1 do
    let g = t.group_of_attr.(a) in
    Array.blit part.Partitioning.placed.(g) 0 out.Partitioning.placed.(a) 0
      part.Partitioning.num_sites
  done;
  out

let restrict t (part : Partitioning.t) =
  let ng = num_groups t in
  let out =
    Partitioning.create ~num_sites:part.Partitioning.num_sites
      ~num_txns:(Array.length part.Partitioning.txn_site)
      ~num_attrs:ng
  in
  Array.blit part.Partitioning.txn_site 0 out.Partitioning.txn_site 0
    (Array.length part.Partitioning.txn_site);
  for g = 0 to ng - 1 do
    for s = 0 to part.Partitioning.num_sites - 1 do
      out.Partitioning.placed.(g).(s) <-
        Array.for_all (fun a -> part.Partitioning.placed.(a).(s)) t.members.(g)
    done
  done;
  out
