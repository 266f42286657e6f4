(* Delta_cost vs Cost_model agreement: the incremental evaluator must
   track the from-scratch objective to float precision over arbitrary
   move sequences (ISSUE 5 acceptance: drift is a gate failure). *)

open Vpart

(* The annealed objective the evaluator tracks: objective (6) plus the
   Appendix-A latency term when enabled, all recomputed from scratch. *)
let fresh_objective stats ~lambda ?latency part =
  Cost_model.objective stats ~lambda part
  +.
  match latency with
  | Some (inst, pl) -> lambda *. Cost_model.latency inst ~pl part
  | None -> 0.

let check_agreement ~what dc stats ~lambda ?latency () =
  let part = Delta_cost.partitioning dc in
  let want = fresh_objective stats ~lambda ?latency part in
  let got = Delta_cost.objective dc in
  let tol = 1e-9 *. (1. +. Float.abs want) in
  if Float.abs (got -. want) > tol then
    Alcotest.failf "%s: delta %.17g vs fresh %.17g (diff %g > tol %g)" what
      got want (Float.abs (got -. want)) tol

(* The site aggregates against a fresh evaluator's rebuild: the counts
   [forced] and [miss] exactly, the sums [coef] and [score] within
   1e-9·(1 + Σ|c1| + Σ|c2|), a bound on every partial sum's rounding
   that a missed or doubled update exceeds.  A [Disjoint] evaluator
   keeps [coef] only, and refuses the other three. *)
let check_aggregates ~what ?(mode = Delta_cost.Replicated) dc stats =
  let fresh =
    Delta_cost.create ~mode stats ~lambda:0.
      (Partitioning.copy (Delta_cost.partitioning dc))
  in
  let scale = ref 0. in
  Array.iter (fun c -> scale := !scale +. Float.abs c) stats.Stats.c2;
  for t = 0 to stats.Stats.num_txns - 1 do
    for a = 0 to stats.Stats.num_attrs - 1 do
      scale := !scale +. Float.abs stats.Stats.c1.{t, a}
    done
  done;
  let tol = 1e-9 *. (1. +. !scale) in
  let close name kept rebuilt =
    Array.iteri
      (fun i row ->
         Array.iteri
           (fun j v ->
              if Float.abs (v -. rebuilt.(i).(j)) > tol then
                Alcotest.failf "%s: %s.(%d).(%d) is %.17g, rebuilt %.17g" what
                  name i j v rebuilt.(i).(j))
           row)
      kept
  in
  let same name kept rebuilt =
    if kept <> rebuilt then
      Alcotest.failf "%s: %s differs from a rebuild" what name
  in
  close "coef" (Delta_cost.coef dc) (Delta_cost.coef fresh);
  match mode with
  | Delta_cost.Replicated ->
    close "score" (Delta_cost.score dc) (Delta_cost.score fresh);
    same "forced" (Delta_cost.forced dc) (Delta_cost.forced fresh);
    same "miss" (Delta_cost.miss dc) (Delta_cost.miss fresh)
  | Delta_cost.Disjoint ->
    let refused name get =
      match get dc with
      | (_ : _ array array) ->
        Alcotest.failf "%s: a Disjoint evaluator returned %s" what name
      | exception Invalid_argument _ -> ()
    in
    refused "forced" Delta_cost.forced;
    refused "score" Delta_cost.score;
    refused "miss" Delta_cost.miss

let random_partitioning st stats ~num_sites =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let part = Partitioning.create ~num_sites ~num_txns:nt ~num_attrs:na in
  for t = 0 to nt - 1 do
    part.Partitioning.txn_site.(t) <- Random.State.int st num_sites
  done;
  Partitioning.repair_single_sitedness stats part;
  (* Sprinkle extra replicas so drops are exercised from the start. *)
  for a = 0 to na - 1 do
    if Random.State.float st 1. < 0.3 then
      part.Partitioning.placed.(a).(Random.State.int st num_sites) <- true
  done;
  part

(* One random action against the evaluator.  Moves need not preserve
   validity: both evaluators are pure sums over the layout, so agreement
   is meaningful (and required) on invalid intermediate layouts too. *)
let random_action st dc stats ~num_sites ~marks =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  match Random.State.int st 11 with
  | 0 | 1 | 2 ->
    Delta_cost.flip dc (Random.State.int st na) (Random.State.int st num_sites)
  | 3 | 4 | 5 ->
    Delta_cost.assign dc (Random.State.int st nt) (Random.State.int st num_sites)
  | 6 ->
    (* Component move: a contiguous slice keeps txns/attrs distinct. *)
    let k = 1 + Random.State.int st (min 3 nt) in
    let t0 = Random.State.int st (nt - k + 1) in
    let j = 1 + Random.State.int st (min 3 na) in
    let a0 = Random.State.int st (na - j + 1) in
    Delta_cost.move_component dc
      (Array.init k (fun i -> t0 + i))
      (Array.init j (fun i -> a0 + i))
      (Random.State.int st num_sites)
  | 7 ->
    if Delta_cost.moves_applied dc > 0 && Delta_cost.mark dc > 0 then
      Delta_cost.undo_move dc
  | 8 ->
    (* Exercise mark/undo_to: run a burst, then rewind it entirely. *)
    (match !marks with
     | [] -> marks := [ Delta_cost.mark dc ]
     | m :: rest ->
       Delta_cost.undo_to dc m;
       marks := rest)
  | 9 ->
    (* Keep everything applied so far: the marks taken before are stale. *)
    Delta_cost.commit dc;
    marks := []
  | _ -> Delta_cost.resync dc

let generated ~seed ~tables ~txns =
  Instance_gen.generate ~seed
    { Instance_gen.default_params with
      Instance_gen.name = Printf.sprintf "delta%d" seed;
      num_tables = tables;
      num_transactions = txns;
      update_percent = 40;
    }

let prop_delta_agrees =
  QCheck2.Test.make ~count:60 ~name:"delta evaluator agrees with Cost_model"
    QCheck2.Gen.(
      tup4 (int_range 0 100000) (int_range 2 4) (int_range 2 8)
        (tup3 bool bool (int_range 1 4)))
    (fun (seed, num_sites, tables, (with_latency, disjoint, txns)) ->
       let inst = generated ~seed ~tables ~txns in
       let stats = Stats.compute inst ~p:8. in
       let st = Random.State.make [| seed; 77 |] in
       let lambda = Random.State.float st 1. in
       let latency = if with_latency then Some (inst, 0.5) else None in
       let mode = if disjoint then Delta_cost.Disjoint else Replicated in
       let part = random_partitioning st stats ~num_sites in
       let dc = Delta_cost.create ?latency ~mode stats ~lambda part in
       let marks = ref [] in
       check_agreement ~what:"initial" dc stats ~lambda ?latency ();
       for step = 1 to 80 do
         random_action st dc stats ~num_sites ~marks;
         let what = Printf.sprintf "step %d (seed %d)" step seed in
         check_agreement ~what dc stats ~lambda ?latency ();
         check_aggregates ~what ~mode dc stats
       done;
       true)

(* What the annealer's replicated proposal skips rests on this: [coef]
   and [forced] are functions of the homes alone, and [score] and [miss]
   of the placement alone, so a flip leaves the first two and an assign
   the last two bit for bit as they were. *)
let prop_moves_leave_other_side =
  QCheck2.Test.make ~count:60
    ~name:"flip keeps coef/forced, assign keeps score/miss bit for bit"
    QCheck2.Gen.(
      tup4 (int_range 0 100000) (int_range 2 4) (int_range 2 8)
        (int_range 1 4))
    (fun (seed, num_sites, tables, txns) ->
       let inst = generated ~seed ~tables ~txns in
       let stats = Stats.compute inst ~p:8. in
       let st = Random.State.make [| seed; 91 |] in
       let part = random_partitioning st stats ~num_sites in
       let dc =
         Delta_cost.create ~latency:(inst, 0.5) stats
           ~lambda:(Random.State.float st 1.) part
       in
       let snap m = Array.map Array.copy m in
       let bits = Array.map (Array.map Int64.bits_of_float) in
       let unchanged what name before after =
         if before <> after then
           Alcotest.failf "%s changed %s (seed %d)" what name seed
       in
       for _ = 1 to 60 do
         if Random.State.bool st then begin
           let coef = bits (Delta_cost.coef dc)
           and forced = snap (Delta_cost.forced dc) in
           Delta_cost.flip dc
             (Random.State.int st stats.Stats.num_attrs)
             (Random.State.int st num_sites);
           unchanged "flip" "coef" coef (bits (Delta_cost.coef dc));
           unchanged "flip" "forced" forced (Delta_cost.forced dc)
         end
         else begin
           let score = bits (Delta_cost.score dc)
           and miss = snap (Delta_cost.miss dc) in
           Delta_cost.assign dc
             (Random.State.int st stats.Stats.num_txns)
             (Random.State.int st num_sites);
           unchanged "assign" "score" score (bits (Delta_cost.score dc));
           unchanged "assign" "miss" miss (Delta_cost.miss dc)
         end;
         if Random.State.int st 4 = 0 then Delta_cost.undo_move dc
       done;
       true)

(* The compressed lines the evaluator and the annealer walk: every
   entry where some matrix is nonzero, in ascending order within its
   line, with each matrix's value; nothing else. *)
let prop_compress_matches_dense =
  QCheck2.Test.make ~count:100 ~name:"compressed lines match the dense matrices"
    QCheck2.Gen.(tup3 (int_range 0 100000) (int_range 0 7) (int_range 0 7))
    (fun (seed, rows, cols) ->
       let st = Random.State.make [| seed |] in
       let sparse_mat () =
         let m = Vec.mat_create rows cols in
         for i = 0 to rows - 1 do
           for j = 0 to cols - 1 do
             if Random.State.int st 3 = 0 then
               m.{i, j} <- Random.State.float st 2. -. 1.
           done
         done;
         m
       in
       let ms = [| sparse_mat (); sparse_mat () |] in
       let agrees (sp : Vec.sparse) ~lines ~len ~at =
         let ok = ref (Array.length sp.Vec.ptr = lines + 1) in
         for l = 0 to lines - 1 do
           let k = ref sp.Vec.ptr.(l) in
           for e = 0 to len - 1 do
             let i, j = at l e in
             if ms.(0).{i, j} <> 0. || ms.(1).{i, j} <> 0. then begin
               if !k >= sp.Vec.ptr.(l + 1) || sp.Vec.idx.(!k) <> e then
                 ok := false
               else
                 Array.iteri
                   (fun m v -> if v.{!k} <> ms.(m).{i, j} then ok := false)
                   sp.Vec.vals;
               incr k
             end
           done;
           if !k <> sp.Vec.ptr.(l + 1) then ok := false
         done;
         !ok
       in
       agrees (Vec.compress_rows ms) ~lines:rows ~len:cols
         ~at:(fun l e -> (l, e))
       && agrees (Vec.transpose (Vec.compress_rows ms) cols) ~lines:cols
            ~len:rows ~at:(fun l e -> (e, l)))

(* ------------------------------------------------------------------ *)
(* Fixtures on the hand-computed tiny instance (cf. test_core.ml)      *)
(* ------------------------------------------------------------------ *)

let tiny () =
  let schema =
    Schema.make [ ("T1", [ ("a0", 4); ("a1", 8) ]); ("T2", [ ("b0", 2) ]) ]
  in
  let q_read =
    { Workload.q_name = "qr"; kind = Workload.Read; freq = 2.;
      tables = [ (0, 1.) ]; attrs = [ 0 ] }
  in
  let q_write =
    { Workload.q_name = "qw"; kind = Workload.Write; freq = 1.;
      tables = [ (0, 1.); (1, 1.) ]; attrs = [ 1 ] }
  in
  let wl =
    Workload.make ~queries:[ q_read; q_write ]
      ~transactions:[ { Workload.t_name = "t"; queries = [ 0; 1 ] } ]
  in
  Instance.make ~name:"tiny" schema wl

let base_part stats =
  let part =
    Partitioning.create ~num_sites:2 ~num_txns:stats.Stats.num_txns
      ~num_attrs:stats.Stats.num_attrs
  in
  Partitioning.repair_single_sitedness stats part;
  part

let feq = Alcotest.(check (float 1e-9))

(* The λ weighting of objective (6): at λ = 0 the evaluator must report
   pure max-site-work; at λ = 1 pure cost; flips must move both sides
   exactly as Cost_model says. *)
let test_lambda_term () =
  let inst = tiny () in
  let stats = Stats.compute inst ~p:8. in
  List.iter
    (fun lambda ->
       let part = base_part stats in
       let dc = Delta_cost.create stats ~lambda part in
       feq "initial objective"
         (Cost_model.objective stats ~lambda part)
         (Delta_cost.objective dc);
       feq "initial cost" (Cost_model.cost stats part) (Delta_cost.cost dc);
       feq "initial max work"
         (Cost_model.max_site_work stats part)
         (Delta_cost.max_site_work dc);
       (* Replicate a1 on site 1: cost and work both change. *)
       let before = Delta_cost.objective dc in
       Delta_cost.flip dc 1 1;
       feq "delta is the exact change"
         (Cost_model.objective stats ~lambda part -. before)
         (Delta_cost.objective dc -. before);
       feq "objective after flip"
         (Cost_model.objective stats ~lambda part)
         (Delta_cost.objective dc);
       Delta_cost.undo_move dc;
       feq "undo restores" before (Delta_cost.objective dc))
    [ 0.; 0.1; 0.5; 1. ]

(* Appendix-A latency: replicating the written attribute a1 away from the
   writer's home site must add exactly λ·pl·f_qw = λ·0.5·1. *)
let test_latency_term () =
  let inst = tiny () in
  let stats = Stats.compute inst ~p:8. in
  let lambda = 0.4 and pl = 0.5 in
  let part = base_part stats in
  let dc = Delta_cost.create ~latency:(inst, pl) stats ~lambda part in
  feq "no replica, no latency" 0. (Cost_model.latency inst ~pl part);
  feq "initial annealed objective"
    (Cost_model.objective stats ~lambda part)
    (Delta_cost.objective dc);
  let plain = Delta_cost.objective dc in
  Delta_cost.flip dc 1 1;
  feq "flip charges the psi term"
    (Cost_model.objective stats ~lambda part +. (lambda *. pl *. 1.) -. plain)
    (Delta_cost.objective dc -. plain);
  feq "latency now positive" (pl *. 1.) (Cost_model.latency inst ~pl part);
  (* A second off-home replica of the same write set must not double
     charge: psi_q is an indicator, not a count. *)
  Delta_cost.assign dc 0 1;
  feq "psi is an indicator"
    (Cost_model.objective stats ~lambda part
     +. (lambda *. Cost_model.latency inst ~pl part))
    (Delta_cost.objective dc)

(* Portfolio exchange: the SA chains adopt foreign layouts wholesale by
   rewriting the wrapped partitioning and resyncing. *)
let test_exchange_resync () =
  let inst = tiny () in
  let stats = Stats.compute inst ~p:8. in
  let lambda = 0.3 in
  let part = base_part stats in
  let dc = Delta_cost.create ~latency:(inst, 2.) stats ~lambda part in
  (* Overwrite the layout behind the evaluator's back, as an exchange
     point does, then resync. *)
  part.Partitioning.txn_site.(0) <- 1;
  part.Partitioning.placed.(0).(0) <- false;
  part.Partitioning.placed.(0).(1) <- true;
  part.Partitioning.placed.(1).(1) <- true;
  part.Partitioning.placed.(2).(1) <- true;
  Delta_cost.resync dc;
  feq "resync after exchange"
    (Cost_model.objective stats ~lambda part
     +. (lambda *. Cost_model.latency inst ~pl:2. part))
    (Delta_cost.objective dc);
  (* And the journal keeps working after the exchange. *)
  let before = Delta_cost.objective dc in
  Delta_cost.flip dc 1 0;
  Delta_cost.undo_move dc;
  feq "journal valid after resync" before (Delta_cost.objective dc)

(* After [commit] the journal is empty: nothing to undo, marks restart
   at 0, and a later burst still rewinds exactly to the committed
   layout. *)
let test_commit () =
  let inst = tiny () in
  let stats = Stats.compute inst ~p:8. in
  let lambda = 0.3 and latency = (inst, 0.5) in
  let part = base_part stats in
  let dc = Delta_cost.create ~latency stats ~lambda part in
  Delta_cost.flip dc 1 1;
  Delta_cost.assign dc 0 1;
  Delta_cost.commit dc;
  Alcotest.(check int) "mark after commit" 0 (Delta_cost.mark dc);
  Alcotest.check_raises "undo_move on a committed journal"
    (Invalid_argument "Delta_cost.undo_move: empty journal") (fun () ->
      Delta_cost.undo_move dc);
  let committed = Partitioning.copy part in
  let before = Delta_cost.objective dc in
  Delta_cost.undo_to dc 0;
  Alcotest.(check bool) "undo_to 0 keeps the layout" true
    (Partitioning.equal committed part);
  feq "undo_to 0 keeps the objective" before (Delta_cost.objective dc);
  let m = Delta_cost.mark dc in
  Delta_cost.flip dc 0 1;
  Delta_cost.assign dc 0 0;
  Delta_cost.move_component dc [| 0 |] [| 0; 2 |] 1;
  Delta_cost.undo_to dc m;
  Alcotest.(check bool) "burst rewound to the committed layout" true
    (Partitioning.equal committed part);
  feq "objective agrees with a fresh evaluator"
    (Delta_cost.objective (Delta_cost.create ~latency stats ~lambda
                             (Partitioning.copy part)))
    (Delta_cost.objective dc)

(* The moves and their undo allocate nothing once the journal has grown
   to the burst, in either mode: the annealer runs thousands of them per
   request. *)
let test_moves_allocate_nothing mode () =
  let inst =
    Instance_gen.generate ~seed:3
      { Instance_gen.default_params with
        Instance_gen.name = "alloc";
        num_tables = 4;
        num_transactions = 6;
        update_percent = 40;
      }
  in
  let stats = Stats.compute inst ~p:8. in
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let st = Random.State.make [| 5 |] in
  let part = random_partitioning st stats ~num_sites:3 in
  let dc =
    Delta_cost.create ~latency:(inst, 0.5) ~mode stats ~lambda:0.3 part
  in
  let moves =
    Array.init 300 (fun _ ->
        ( Random.State.int st 3,
          Random.State.int st nt,
          Random.State.int st na,
          Random.State.int st 3 ))
  in
  let txns = [| 0 |] and attrs = [| 0 |] in
  let burst () =
    Array.iter
      (fun (kind, tx, a, s) ->
         match kind with
         | 0 -> Delta_cost.flip dc a s
         | 1 -> Delta_cost.assign dc tx s
         | _ -> Delta_cost.move_component dc txns attrs s)
      moves;
    Delta_cost.undo_to dc 0
  in
  burst ();
  let before = Gc.minor_words () in
  burst ();
  let words = Gc.minor_words () -. before in
  if words > 32. then
    Alcotest.failf "300 moves and their undo allocated %.0f minor words" words

let () =
  Alcotest.run "delta"
    [ ("fixtures",
       [ Alcotest.test_case "lambda term" `Quick test_lambda_term;
         Alcotest.test_case "latency term" `Quick test_latency_term;
         Alcotest.test_case "exchange resync" `Quick test_exchange_resync;
         Alcotest.test_case "commit" `Quick test_commit;
         Alcotest.test_case "moves allocate nothing" `Quick
           (test_moves_allocate_nothing Delta_cost.Replicated);
         Alcotest.test_case "disjoint moves allocate nothing" `Quick
           (test_moves_allocate_nothing Delta_cost.Disjoint);
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_delta_agrees;
         QCheck_alcotest.to_alcotest prop_moves_leave_other_side;
         QCheck_alcotest.to_alcotest prop_compress_matches_dense ]);
    ]
