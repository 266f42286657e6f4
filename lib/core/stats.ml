type t = {
  p : float;
  num_attrs : int;
  num_txns : int;
  num_queries : int;
  c1 : Vec.mat;
  c2 : float array;
  c3 : Vec.mat;
  c4 : float array;
  phi : bool array array;
  total_weight : float;
}

let w (inst : Instance.t) ~a ~q =
  let query = Workload.query inst.workload q in
  let tid = Schema.table_of_attr inst.schema a in
  match Workload.rows_for_table query tid with
  | None -> 0.
  | Some rows ->
    float_of_int (Schema.attr_width inst.schema a) *. query.Workload.freq *. rows

let compute (inst : Instance.t) ~p =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  let na = Schema.num_attrs schema in
  let nt = Workload.num_transactions wl in
  let nq = Workload.num_queries wl in
  let c1 = Vec.mat_create nt na in
  let c2 = Array.make na 0. in
  let c3 = Vec.mat_create nt na in
  let c4 = Array.make na 0. in
  let phi = Array.init nt (fun _ -> Array.make na false) in
  let total_weight = ref 0. in
  for tid = 0 to nt - 1 do
    let txn = Workload.transaction wl tid in
    List.iter
      (fun qid ->
         let q = Workload.query wl qid in
         let delta = Workload.is_write q in
         let alpha = Array.make na false in
         List.iter (fun a -> alpha.(a) <- true) q.Workload.attrs;
         List.iter
           (fun (table, rows) ->
              List.iter
                (fun a ->
                   (* beta_{a,q} = 1 for every attribute of this table *)
                   let wa =
                     float_of_int (Schema.attr_width schema a)
                     *. q.Workload.freq *. rows
                   in
                   total_weight := !total_weight +. wa;
                   if delta then begin
                     c2.(a) <- c2.(a) +. (wa *. (1. +. (if alpha.(a) then p else 0.)));
                     c4.(a) <- c4.(a) +. wa;
                     if alpha.(a) then
                       c1.{tid, a} <- c1.{tid, a} -. (p *. wa)
                   end
                   else begin
                     c1.{tid, a} <- c1.{tid, a} +. wa;
                     c3.{tid, a} <- c3.{tid, a} +. wa;
                     if alpha.(a) then phi.(tid).(a) <- true
                   end)
                (Schema.attrs_of_table schema table))
           q.Workload.tables)
      txn.Workload.queries
  done;
  {
    p;
    num_attrs = na;
    num_txns = nt;
    num_queries = nq;
    c1; c2; c3; c4; phi;
    total_weight = !total_weight;
  }
