type txn_move = {
  txn : int;
  to_site : int;
  delta : float;
  forced_replicas : int list;
}

type replica_change = {
  attr : int;
  site : int;
  action : [ `Add | `Drop ];
  delta : float;
}

type report = {
  base_cost : float;
  txn_moves : txn_move list;
  replica_changes : replica_change list;
}

let analyze (inst : Instance.t) ~p (part : Partitioning.t) =
  let stats = Stats.compute inst ~p in
  (match Partitioning.validate stats part with
   | Ok () -> ()
   | Error e -> invalid_arg ("Advisor.analyze: " ^ e));
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = part.Partitioning.num_sites in
  (* the evaluator's coef.(s).(a) is the cost of a replica of [a] on [s],
     and forced.(s).(a) counts its φ-readers homed at [s] *)
  let dc = Delta_cost.create stats ~lambda:1. (Partitioning.copy part) in
  let base = Delta_cost.cost dc in
  let coef = Delta_cost.coef dc
  and forced = Delta_cost.forced dc
  and reads = Delta_cost.reads dc in
  let placed = (Delta_cost.partitioning dc).Partitioning.placed in
  (* transaction moves: apply the move and the replicas it forces, read
     the cost, undo *)
  let txn_moves = ref [] in
  for t = 0 to nt - 1 do
    for s' = 0 to ns - 1 do
      if s' <> part.Partitioning.txn_site.(t) then begin
        let new_replicas =
          List.filter (fun a -> not placed.(a).(s')) (Array.to_list reads.(t))
        in
        Delta_cost.assign dc t s';
        List.iter (fun a -> Delta_cost.flip dc a s') new_replicas;
        let delta = Delta_cost.cost dc -. base in
        Delta_cost.undo_to dc 0;
        txn_moves :=
          { txn = t; to_site = s'; delta; forced_replicas = new_replicas }
          :: !txn_moves
      end
    done
  done;
  (* replica additions and drops *)
  let replica_changes = ref [] in
  for a = 0 to na - 1 do
    for s = 0 to ns - 1 do
      if placed.(a).(s) then begin
        if forced.(s).(a) = 0 && Delta_cost.replicas dc a > 1 then
          replica_changes :=
            { attr = a; site = s; action = `Drop; delta = -.coef.(s).(a) }
            :: !replica_changes
      end
      else
        replica_changes :=
          { attr = a; site = s; action = `Add; delta = coef.(s).(a) }
          :: !replica_changes
    done
  done;
  {
    base_cost = Cost_model.cost stats part;
    txn_moves =
      List.sort
        (fun (x : txn_move) y -> compare (x.delta, x.txn) (y.delta, y.txn))
        !txn_moves;
    replica_changes =
      List.sort
        (fun (x : replica_change) y -> compare (x.delta, x.attr) (y.delta, y.attr))
        !replica_changes;
  }

let best_improvement r =
  let best = ref 0. in
  List.iter
    (fun (m : txn_move) -> if m.delta < !best then best := m.delta)
    r.txn_moves;
  List.iter
    (fun (c : replica_change) -> if c.delta < !best then best := c.delta)
    r.replica_changes;
  !best

let pp (inst : Instance.t) ?(limit = 10) ppf r =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  Format.fprintf ppf "@[<v>base cost (objective 4): %.4g@," r.base_cost;
  Format.fprintf ppf "transaction moves (best %d):@," limit;
  List.iteri
    (fun i (m : txn_move) ->
       if i < limit then
         Format.fprintf ppf "  %+10.1f  move %s -> site %d%s@," m.delta
           (Workload.transaction wl m.txn).Workload.t_name (m.to_site + 1)
           (match m.forced_replicas with
            | [] -> ""
            | reps ->
              Printf.sprintf " (replicating %d attrs)" (List.length reps)))
    r.txn_moves;
  Format.fprintf ppf "replica changes (best %d):@," limit;
  List.iteri
    (fun i (c : replica_change) ->
       if i < limit then
         Format.fprintf ppf "  %+10.1f  %s %s %s site %d@," c.delta
           (match c.action with `Add -> "add" | `Drop -> "drop")
           (Schema.attr_name schema c.attr)
           (match c.action with `Add -> "to" | `Drop -> "from")
           (c.site + 1))
    r.replica_changes;
  Format.fprintf ppf "@]"
