(* Tests for the QP (MIP) and SA solvers, including brute-force optimality
   checks on tiny instances. *)

open Vpart

(* ------------------------------------------------------------------ *)
(* Brute force: enumerate all feasible (x, y) for small instances       *)
(* ------------------------------------------------------------------ *)

let brute_force_best (inst : Instance.t) ~p ~lambda ~num_sites ~allow_replication =
  let stats = Stats.compute inst ~p in
  let nt = Instance.num_transactions inst and na = Instance.num_attrs inst in
  let best = ref infinity in
  let part = Partitioning.create ~num_sites ~num_txns:nt ~num_attrs:na in
  (* enumerate x assignments *)
  let rec enum_x t =
    if t = nt then enum_y 0
    else
      for s = 0 to num_sites - 1 do
        part.Partitioning.txn_site.(t) <- s;
        enum_x (t + 1)
      done
  and enum_y a =
    if a = na then begin
      match Partitioning.validate stats part with
      | Ok () ->
        let obj = Cost_model.objective stats ~lambda part in
        if obj < !best then best := obj
      | Error _ -> ()
    end
    else begin
      let limit = (1 lsl num_sites) - 1 in
      for mask = 1 to limit do
        if allow_replication || (mask land (mask - 1)) = 0 then begin
          for s = 0 to num_sites - 1 do
            part.Partitioning.placed.(a).(s) <- mask land (1 lsl s) <> 0
          done;
          enum_y (a + 1)
        end
      done
    end
  in
  enum_x 0;
  !best

let small_instance seed =
  let params =
    { Instance_gen.default_params with
      Instance_gen.name = Printf.sprintf "small%d" seed;
      num_tables = 2;
      num_transactions = 2;
      max_attrs_per_table = 3;
      max_queries_per_txn = 2;
      update_percent = 40;
      max_tables_per_query = 2;
      max_attrs_per_query = 3;
    }
  in
  Instance_gen.generate ~seed params

let qp_options ~num_sites ~lambda ~allow_replication =
  { Qp_solver.default_options with
    Qp_solver.num_sites;
    lambda;
    allow_replication;
    time_limit = 30.;
    gap = 1e-9;
  }

let test_qp_matches_brute_force () =
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       List.iter
         (fun lambda ->
            let expected =
              brute_force_best inst ~p:8. ~lambda ~num_sites:2
                ~allow_replication:true
            in
            let r =
              Qp_solver.solve ~options:(qp_options ~num_sites:2 ~lambda
                                          ~allow_replication:true)
                inst
            in
            match r.Qp_solver.outcome, r.Qp_solver.objective6 with
            | Qp_solver.Proved_optimal, Some got ->
              if Float.abs (got -. expected) > 1e-6 *. (1. +. Float.abs expected)
              then
                Alcotest.failf "seed %d lambda %.1f: QP %.9g <> brute force %.9g"
                  seed lambda got expected
            | _ -> Alcotest.failf "seed %d: QP did not prove optimality" seed)
         [ 1.0; 0.5 ])
    [ 1; 2; 3; 4; 5 ]

let test_qp_disjoint_matches_brute_force () =
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let expected =
         brute_force_best inst ~p:8. ~lambda:1.0 ~num_sites:2
           ~allow_replication:false
       in
       let r =
         Qp_solver.solve
           ~options:(qp_options ~num_sites:2 ~lambda:1.0 ~allow_replication:false)
           inst
       in
       match r.Qp_solver.outcome, r.Qp_solver.objective6 with
       | Qp_solver.Proved_optimal, Some got ->
         if Float.abs (got -. expected) > 1e-6 *. (1. +. Float.abs expected) then
           Alcotest.failf "seed %d: disjoint QP %.9g <> brute force %.9g" seed got
             expected
       | _ -> Alcotest.failf "seed %d: disjoint QP did not prove optimality" seed)
    [ 1; 2; 3; 4; 5 ]

let test_qp_partitioning_is_valid () =
  let inst = small_instance 11 in
  let r = Qp_solver.solve ~options:(qp_options ~num_sites:3 ~lambda:0.9
                                      ~allow_replication:true) inst in
  match r.Qp_solver.partitioning with
  | Some part ->
    let stats = Stats.compute inst ~p:8. in
    (match Partitioning.validate stats part with
     | Ok () -> ()
     | Error e -> Alcotest.fail e);
    (* reported cost matches recomputation *)
    (match r.Qp_solver.cost with
     | Some c ->
       Alcotest.(check (float 1e-6)) "cost recomputes" (Cost_model.cost stats part) c
     | None -> Alcotest.fail "no cost")
  | None -> Alcotest.fail "no partitioning"

let test_qp_single_site_cost () =
  (* With one site the only freedom is nothing: cost = single-site cost. *)
  let inst = small_instance 3 in
  let stats = Stats.compute inst ~p:8. in
  let expected = Cost_model.cost stats (Partitioning.single_site inst) in
  let r =
    Qp_solver.solve ~options:(qp_options ~num_sites:1 ~lambda:1.0
                                ~allow_replication:true) inst
  in
  match r.Qp_solver.cost with
  | Some c -> Alcotest.(check (float 1e-6)) "1-site cost" expected c
  | None -> Alcotest.fail "no solution"

let test_qp_replication_never_hurts () =
  (* optimum with replication <= optimum without (same instance/sites) *)
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let solve ar =
         let r =
           Qp_solver.solve
             ~options:(qp_options ~num_sites:2 ~lambda:1.0 ~allow_replication:ar)
             inst
         in
         match r.Qp_solver.outcome, r.Qp_solver.cost with
         | Qp_solver.Proved_optimal, Some c -> c
         | _ -> Alcotest.fail "expected optimal"
       in
       let with_rep = solve true and without = solve false in
       if with_rep > without +. 1e-6 *. (1. +. Float.abs without) then
         Alcotest.failf "seed %d: replication hurt (%.9g > %.9g)" seed with_rep
           without)
    [ 1; 2; 3; 6; 7 ]

let test_qp_grouping_ablation () =
  (* grouping must not change the optimum *)
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let solve g =
         let opts =
           { (qp_options ~num_sites:2 ~lambda:1.0 ~allow_replication:true) with
             Qp_solver.use_grouping = g }
         in
         match (Qp_solver.solve ~options:opts inst).Qp_solver.objective6 with
         | Some c -> c
         | None -> Alcotest.fail "no solution"
       in
       let a = solve true and b = solve false in
       Alcotest.(check (float 1e-6)) (Printf.sprintf "seed %d" seed) b a)
    [ 2; 4; 8 ]

let test_qp_too_large () =
  let inst = small_instance 1 in
  let opts =
    { (qp_options ~num_sites:2 ~lambda:0.5 ~allow_replication:true) with
      Qp_solver.max_rows = Some 1 }
  in
  let r = Qp_solver.solve ~options:opts inst in
  (match r.Qp_solver.outcome with
   | Qp_solver.Too_large -> ()
   | _ -> Alcotest.fail "expected Too_large");
  Alcotest.(check bool) "no partitioning" true (r.Qp_solver.partitioning = None)

(* ------------------------------------------------------------------ *)
(* SA solver                                                           *)
(* ------------------------------------------------------------------ *)

let sa_options ~num_sites ~lambda =
  { Sa_solver.default_options with Sa_solver.num_sites; lambda }

let test_sa_deterministic () =
  let inst = small_instance 5 in
  let r1 = Sa_solver.solve ~options:(sa_options ~num_sites:3 ~lambda:0.9) inst in
  let r2 = Sa_solver.solve ~options:(sa_options ~num_sites:3 ~lambda:0.9) inst in
  Alcotest.(check (float 0.)) "same cost" r1.Sa_solver.cost r2.Sa_solver.cost;
  Alcotest.(check bool) "same partitioning" true
    (Partitioning.equal r1.Sa_solver.partitioning r2.Sa_solver.partitioning)

let test_sa_valid_and_consistent () =
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let r = Sa_solver.solve ~options:(sa_options ~num_sites:3 ~lambda:0.9) inst in
       let stats = Stats.compute inst ~p:8. in
       (match Partitioning.validate stats r.Sa_solver.partitioning with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
       Alcotest.(check (float 1e-9)) "cost recomputes"
         (Cost_model.cost stats r.Sa_solver.partitioning)
         r.Sa_solver.cost;
       Alcotest.(check (float 1e-9)) "objective recomputes"
         (Cost_model.objective stats ~lambda:0.9 r.Sa_solver.partitioning)
         r.Sa_solver.objective6)
    [ 1; 2; 3; 4; 5 ]

let test_sa_not_worse_than_collapsed () =
  (* the collapsed fallback guarantees obj6 <= best single-site layout *)
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let stats = Stats.compute inst ~p:8. in
       let r = Sa_solver.solve ~options:(sa_options ~num_sites:4 ~lambda:0.9) inst in
       let collapsed =
         let part =
           Partitioning.create ~num_sites:4
             ~num_txns:(Instance.num_transactions inst)
             ~num_attrs:(Instance.num_attrs inst)
         in
         Partitioning.repair_single_sitedness stats part;
         Cost_model.objective stats ~lambda:0.9 part
       in
       if r.Sa_solver.objective6 > collapsed +. 1e-6 *. (1. +. collapsed) then
         Alcotest.failf "seed %d: SA %.9g worse than collapsed %.9g" seed
           r.Sa_solver.objective6 collapsed)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_sa_close_to_qp_optimum () =
  (* On tiny instances SA should come close to the proven optimum. *)
  let worst_ratio = ref 1.0 in
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let qp =
         Qp_solver.solve
           ~options:(qp_options ~num_sites:2 ~lambda:0.9 ~allow_replication:true)
           inst
       in
       let sa =
         Sa_solver.solve ~options:(sa_options ~num_sites:2 ~lambda:0.9) inst
       in
       match qp.Qp_solver.outcome, qp.Qp_solver.objective6 with
       | Qp_solver.Proved_optimal, Some opt ->
         if opt > 1e-9 then begin
           let ratio = sa.Sa_solver.objective6 /. opt in
           if ratio > !worst_ratio then worst_ratio := ratio;
           if sa.Sa_solver.objective6 +. 1e-9 < opt -. 1e-6 *. opt then
             Alcotest.failf "seed %d: SA %.9g beats proven optimum %.9g" seed
               sa.Sa_solver.objective6 opt
         end
       | _ -> Alcotest.fail "QP not optimal")
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  if !worst_ratio > 1.25 then
    Alcotest.failf "SA more than 25%% off the optimum (worst ratio %.3f)"
      !worst_ratio

let test_sa_disjoint () =
  List.iter
    (fun seed ->
       let inst = small_instance seed in
       let opts =
         { (sa_options ~num_sites:3 ~lambda:0.9) with
           Sa_solver.allow_replication = false }
       in
       let r = Sa_solver.solve ~options:opts inst in
       Alcotest.(check bool) (Printf.sprintf "seed %d disjoint" seed) true
         (Partitioning.is_disjoint r.Sa_solver.partitioning);
       let stats = Stats.compute inst ~p:8. in
       match Partitioning.validate stats r.Sa_solver.partitioning with
       | Ok () -> ()
       | Error e -> Alcotest.fail e)
    [ 1; 2; 3; 4 ]

let test_sa_tpcc_reduces_cost () =
  let inst = Lazy.force Tpcc.instance in
  let stats = Stats.compute inst ~p:8. in
  let single = Cost_model.cost stats (Partitioning.single_site inst) in
  let r = Sa_solver.solve ~options:(sa_options ~num_sites:2 ~lambda:0.9) inst in
  Alcotest.(check bool) "2-site cost below 1-site" true (r.Sa_solver.cost < single)

(* Property: QP objective (6) is never above SA's on random small
   instances (QP is exact, SA is heuristic). *)
let prop_qp_leq_sa =
  QCheck2.Test.make ~count:25 ~name:"QP optimum <= SA solution (objective 6)"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
       let inst = small_instance seed in
       let qp =
         Qp_solver.solve
           ~options:(qp_options ~num_sites:2 ~lambda:0.9 ~allow_replication:true)
           inst
       in
       let sa = Sa_solver.solve ~options:(sa_options ~num_sites:2 ~lambda:0.9) inst in
       match qp.Qp_solver.outcome, qp.Qp_solver.objective6 with
       | Qp_solver.Proved_optimal, Some opt ->
         opt <= sa.Sa_solver.objective6 +. 1e-6 *. (1. +. Float.abs opt)
       | _ -> false)

(* Property: over generated instances, sites, layout modes and the
   Appendix-A latency term, the annealer returns a valid layout with a
   clean float certificate.  The exact sub-steps read Delta_cost's site
   aggregates, which every rejected proposal undoes; a wrongly undone
   count breaks single-sitedness and surfaces here (the aggregates
   themselves are checked against a rebuild in test_delta). *)
let prop_sa_valid_and_certified =
  QCheck2.Test.make ~count:30
    ~name:"SA layout valid and certified (sites, modes, latency)"
    QCheck2.Gen.(
      tup4 (int_range 0 100000) (int_range 2 4) bool
        (tup3 bool (int_range 2 6) (int_range 2 6)))
    (fun (seed, num_sites, allow_replication, (with_latency, tables, txns)) ->
       let params =
         { Instance_gen.default_params with
           Instance_gen.name = Printf.sprintf "saprop%d" seed;
           num_tables = tables;
           num_transactions = txns;
           update_percent = 30;
         }
       in
       let inst = Instance_gen.generate ~seed params in
       let options =
         { (sa_options ~num_sites ~lambda:0.9) with
           Sa_solver.seed;
           allow_replication;
           latency = (if with_latency then Some 1.0 else None);
           certify = true;
         }
       in
       let r = Sa_solver.solve ~options inst in
       let stats = Stats.compute inst ~p:8. in
       (match Partitioning.validate stats r.Sa_solver.partitioning with
        | Ok () -> ()
        | Error e -> QCheck2.Test.fail_reportf "invalid layout: %s" e);
       if not allow_replication
          && not (Partitioning.is_disjoint r.Sa_solver.partitioning)
       then QCheck2.Test.fail_report "disjoint mode returned replicas";
       match r.Sa_solver.certificate with
       | Some ds when not (Vpart_analysis.Diagnostic.has_errors ds) -> true
       | _ -> QCheck2.Test.fail_report "certificate has errors")

let () =
  Alcotest.run "solvers"
    [ ("qp",
       [ Alcotest.test_case "matches brute force" `Slow test_qp_matches_brute_force;
         Alcotest.test_case "disjoint matches brute force" `Slow
           test_qp_disjoint_matches_brute_force;
         Alcotest.test_case "partitioning valid" `Quick test_qp_partitioning_is_valid;
         Alcotest.test_case "single site" `Quick test_qp_single_site_cost;
         Alcotest.test_case "replication never hurts" `Slow
           test_qp_replication_never_hurts;
         Alcotest.test_case "grouping ablation" `Slow test_qp_grouping_ablation;
         Alcotest.test_case "too large" `Quick test_qp_too_large;
       ]);
      ("sa",
       [ Alcotest.test_case "deterministic" `Quick test_sa_deterministic;
         Alcotest.test_case "valid and consistent" `Quick test_sa_valid_and_consistent;
         Alcotest.test_case "not worse than collapsed" `Quick
           test_sa_not_worse_than_collapsed;
         Alcotest.test_case "close to QP optimum" `Slow test_sa_close_to_qp_optimum;
         Alcotest.test_case "disjoint mode" `Quick test_sa_disjoint;
         Alcotest.test_case "tpcc reduces cost" `Quick test_sa_tpcc_reduces_cost;
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_qp_leq_sa;
         QCheck_alcotest.to_alcotest prop_sa_valid_and_certified ]);
    ]
