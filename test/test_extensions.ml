(* Tests for the paper's optional extensions: the iterative 20/80 solver
   (§4), the latency term (Appendix A) in both solvers, workload
   restriction, and partitioning (de)serialization. *)

open Vpart

let small_instance ?(txns = 6) seed =
  let params =
    { Instance_gen.default_params with
      Instance_gen.name = Printf.sprintf "ext%d" seed;
      num_tables = 3;
      num_transactions = txns;
      max_attrs_per_table = 4;
      max_queries_per_txn = 2;
      update_percent = 40;
      max_tables_per_query = 2;
      max_attrs_per_query = 4;
    }
  in
  Instance_gen.generate ~seed params

(* ------------------------------------------------------------------ *)
(* Instance.restrict_transactions                                      *)
(* ------------------------------------------------------------------ *)

let test_restrict_basic () =
  let inst = Lazy.force Tpcc.instance in
  let sub = Instance.restrict_transactions inst [ 1; 3 ] in
  Alcotest.(check int) "2 transactions" 2 (Instance.num_transactions sub);
  Alcotest.(check int) "same attrs" (Instance.num_attrs inst)
    (Instance.num_attrs sub);
  let wl = sub.Instance.workload in
  Alcotest.(check string) "order preserved: Payment first" "Payment"
    (Workload.transaction wl 0).Workload.t_name;
  Alcotest.(check string) "Delivery second" "Delivery"
    (Workload.transaction wl 1).Workload.t_name;
  (* queries renumbered and owned correctly *)
  (match Workload.validate sub.Instance.schema wl with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "10 + 11 queries" 21 (Workload.num_queries wl)

let test_restrict_errors () =
  let inst = Lazy.force Tpcc.instance in
  (match Instance.restrict_transactions inst [ 0; 0 ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected duplicate error");
  match Instance.restrict_transactions inst [ 99 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected range error"

let test_restrict_cost_additivity () =
  (* single-site cost of a sub-instance is the sum over its transactions *)
  let inst = small_instance 4 in
  let cost i =
    let stats = Stats.compute i ~p:8. in
    Cost_model.cost stats (Partitioning.single_site i)
  in
  let nt = Instance.num_transactions inst in
  let total = cost inst in
  let split = List.init nt (fun t -> cost (Instance.restrict_transactions inst [ t ])) in
  Alcotest.(check (float 1e-6)) "additive" total (List.fold_left ( +. ) 0. split)

(* ------------------------------------------------------------------ *)
(* Iterative solver                                                    *)
(* ------------------------------------------------------------------ *)

let test_weights () =
  let inst = Lazy.force Tpcc.instance in
  let w = Iterative_solver.transaction_weights inst in
  Alcotest.(check int) "one weight per transaction" 5 (Array.length w);
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.)) w;
  (* NewOrder (10-row Stock/OrderLine/Item scans) outweighs OrderStatus *)
  Alcotest.(check bool) "NewOrder > OrderStatus" true (w.(0) > w.(2))

let iter_options ~rounds =
  { Iterative_solver.default_options with
    Iterative_solver.rounds;
    qp =
      { Qp_solver.default_options with
        Qp_solver.num_sites = 2; lambda = 0.9; time_limit = 30. };
  }

let test_iterative_single_round_equals_qp () =
  let inst = small_instance 7 in
  let it = Iterative_solver.solve ~options:(iter_options ~rounds:1) inst in
  let qp =
    Qp_solver.solve
      ~options:{ Qp_solver.default_options with
                 Qp_solver.num_sites = 2; lambda = 0.9; time_limit = 30. }
      inst
  in
  match it.Iterative_solver.objective6, qp.Qp_solver.objective6 with
  | Some a, Some b ->
    Alcotest.(check (float 1e-6)) "same objective" b a;
    Alcotest.(check int) "one round" 1 (List.length it.Iterative_solver.rounds)
  | _ -> Alcotest.fail "missing solutions"

let test_iterative_valid_and_bounded () =
  List.iter
    (fun seed ->
       let inst = small_instance ~txns:10 seed in
       let it = Iterative_solver.solve ~options:(iter_options ~rounds:3) inst in
       let qp =
         Qp_solver.solve
           ~options:{ Qp_solver.default_options with
                      Qp_solver.num_sites = 2; lambda = 0.9; time_limit = 30. }
           inst
       in
       match it.Iterative_solver.partitioning, qp.Qp_solver.objective6 with
       | Some part, Some opt ->
         let stats = Stats.compute inst ~p:8. in
         (match Partitioning.validate stats part with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
         let got =
           Cost_model.objective stats ~lambda:0.9 part
         in
         (* heuristic: never better than the proven optimum *)
         if got +. 1e-6 < opt -. 1e-6 *. Float.abs opt then
           Alcotest.failf "seed %d: iterative %.9g beats optimum %.9g" seed got
             opt;
         (* sanity: within 2x of optimum on these tiny instances *)
         if opt > 1e-9 && got > 2. *. opt then
           Alcotest.failf "seed %d: iterative %.9g too far from optimum %.9g"
             seed got opt
       | _ -> Alcotest.failf "seed %d: no solution" seed)
    [ 1; 2; 3; 4 ]

let test_iterative_rounds_grow () =
  let inst = small_instance ~txns:12 2 in
  let it = Iterative_solver.solve ~options:(iter_options ~rounds:4) inst in
  let sizes =
    List.map (fun r -> r.Iterative_solver.txns_considered) it.Iterative_solver.rounds
  in
  Alcotest.(check bool) "sizes strictly increase" true
    (List.sort_uniq compare sizes = sizes);
  (match List.rev sizes with
   | last :: _ -> Alcotest.(check int) "covers all transactions" 12 last
   | [] -> Alcotest.fail "no rounds")

(* ------------------------------------------------------------------ *)
(* Latency extension (Appendix A)                                      *)
(* ------------------------------------------------------------------ *)

let brute_force_latency_best inst ~p ~pl ~num_sites =
  (* lambda = 1: minimize cost (4) + pl * latency over feasible layouts *)
  let stats = Stats.compute inst ~p in
  let nt = Instance.num_transactions inst and na = Instance.num_attrs inst in
  let best = ref infinity in
  let part = Partitioning.create ~num_sites ~num_txns:nt ~num_attrs:na in
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
        let obj =
          Cost_model.cost stats part +. Cost_model.latency inst ~pl part
        in
        if obj < !best then best := obj
      | Error _ -> ()
    end
    else
      for mask = 1 to (1 lsl num_sites) - 1 do
        for s = 0 to num_sites - 1 do
          part.Partitioning.placed.(a).(s) <- mask land (1 lsl s) <> 0
        done;
        enum_y (a + 1)
      done
  in
  enum_x 0;
  !best

let test_qp_latency_matches_brute_force () =
  List.iter
    (fun seed ->
       let inst = small_instance ~txns:2 seed in
       if Instance.num_attrs inst <= 7 then begin
         let pl = 50. in
         let expected = brute_force_latency_best inst ~p:8. ~pl ~num_sites:2 in
         let r =
           Qp_solver.solve
             ~options:{ Qp_solver.default_options with
                        Qp_solver.num_sites = 2; lambda = 1.0;
                        latency = Some pl; gap = 1e-9; time_limit = 30. }
             inst
         in
         match r.Qp_solver.outcome, r.Qp_solver.partitioning with
         | Qp_solver.Proved_optimal, Some part ->
           let stats = Stats.compute inst ~p:8. in
           let got =
             Cost_model.cost stats part +. Cost_model.latency inst ~pl part
           in
           if Float.abs (got -. expected) > 1e-6 *. (1. +. Float.abs expected)
           then
             Alcotest.failf "seed %d: QP+latency %.9g <> brute force %.9g" seed
               got expected
         | _ -> Alcotest.failf "seed %d: QP+latency not optimal" seed
       end)
    [ 1; 2; 3; 4; 5; 6 ]

let test_huge_latency_penalty_forces_locality () =
  (* with an enormous pl every solver should avoid remote write targets
     entirely (a zero-latency layout always exists: collapse) *)
  let inst = small_instance ~txns:5 3 in
  let check name part =
    Alcotest.(check (float 0.)) (name ^ " zero latency") 0.
      (Cost_model.latency inst ~pl:1. part)
  in
  let qp =
    Qp_solver.solve
      ~options:{ Qp_solver.default_options with
                 Qp_solver.num_sites = 2; lambda = 1.0;
                 latency = Some 1e7; time_limit = 30. }
      inst
  in
  (match qp.Qp_solver.partitioning with
   | Some part -> check "qp" part
   | None -> Alcotest.fail "qp: no solution");
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with
                 Sa_solver.num_sites = 2; lambda = 1.0; latency = Some 1e7 }
      inst
  in
  check "sa" sa.Sa_solver.partitioning

let test_latency_reduces_remote_writes () =
  (* the latency-aware solution never has more latency than the oblivious *)
  List.iter
    (fun seed ->
       let inst = small_instance ~txns:6 seed in
       let solve latency =
         Sa_solver.solve
           ~options:{ Sa_solver.default_options with
                      Sa_solver.num_sites = 3; lambda = 0.9; latency }
           inst
       in
       let without = solve None and with_ = solve (Some 1e6) in
       let lat part = Cost_model.latency inst ~pl:1. part in
       if lat with_.Sa_solver.partitioning
          > lat without.Sa_solver.partitioning +. 1e-9
       then
         Alcotest.failf "seed %d: latency-aware SA has more remote writes" seed)
    [ 1; 2; 3; 4; 5 ]

(* Every solver reports objective (6) with the Appendix-A term when
   [latency] is set: the QP's value is the MIP optimum (so it meets the
   proven bound within the gap), and SA's and the iterative solver's are
   [Cost_model.objective] plus [λ·latency].  All three certify clean,
   float and exact, against the same latency-aware claim. *)
let test_objective6_includes_latency () =
  let inst = Lazy.force Tpcc.instance in
  let lambda = 0.9 and pl = 50. in
  let stats = Stats.compute inst ~p:8. in
  let with_latency name part obj6 =
    let base = Cost_model.objective stats ~lambda part in
    let want = base +. (lambda *. Cost_model.latency inst ~pl part) in
    if Float.abs (obj6 -. want) > 1e-9 *. (1. +. Float.abs want) then
      Alcotest.failf "%s: objective6 %.9g <> objective %.9g + latency term"
        name obj6 base;
    base
  in
  let clean name cert exact =
    (match cert with
     | Some ds when not (Vpart_analysis.Diagnostic.has_errors ds) -> ()
     | _ -> Alcotest.failf "%s: float certificate missing or has errors" name);
    match exact with
    | Some r ->
      let _, _, refuted, _ = Vpart_certify.Certify.Exact.counts r in
      Alcotest.(check int) (name ^ ": 0 exactly refuted") 0 refuted
    | None -> Alcotest.failf "%s: exact report missing" name
  in
  let qp_options =
    { Qp_solver.default_options with
      Qp_solver.num_sites = 2; lambda; latency = Some pl; time_limit = 30.;
      certify = true; certify_exact = true }
  in
  let qp = Qp_solver.solve ~options:qp_options inst in
  (match
     (qp.Qp_solver.outcome, qp.Qp_solver.partitioning,
      qp.Qp_solver.objective6, qp.Qp_solver.bound)
   with
   | Qp_solver.Proved_optimal, Some part, Some obj6, Some bound ->
     let base = with_latency "qp" part obj6 in
     Alcotest.(check bool) "qp: the latency term is non-zero" true
       (obj6 > base);
     let gap = qp_options.Qp_solver.gap in
     if bound > obj6 +. 1e-6 || obj6 -. bound > gap *. Float.abs obj6 +. 1e-6
     then
       Alcotest.failf "qp: objective6 %.9g is not the MIP optimum (bound %.9g)"
         obj6 bound
   | _ -> Alcotest.fail "qp: expected a proved optimum with a bound");
  clean "qp" qp.Qp_solver.certificate qp.Qp_solver.exact;
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with
                 Sa_solver.num_sites = 2; lambda; latency = Some pl;
                 certify = true; certify_exact = true }
      inst
  in
  ignore (with_latency "sa" sa.Sa_solver.partitioning sa.Sa_solver.objective6);
  clean "sa" sa.Sa_solver.certificate sa.Sa_solver.exact;
  let it =
    Iterative_solver.solve
      ~options:{ Iterative_solver.default_options with
                 Iterative_solver.qp = qp_options }
      inst
  in
  (match (it.Iterative_solver.partitioning, it.Iterative_solver.objective6) with
   | Some part, Some obj6 -> ignore (with_latency "iter" part obj6)
   | _ -> Alcotest.fail "iter: no solution");
  clean "iter" it.Iterative_solver.certificate it.Iterative_solver.exact

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)
(* ------------------------------------------------------------------ *)

let apply_txn_move (part : Partitioning.t) (stats : Stats.t) m =
  let out = Partitioning.copy part in
  out.Partitioning.txn_site.(m.Advisor.txn) <- m.Advisor.to_site;
  Partitioning.repair_single_sitedness stats out;
  out

let apply_replica_change (part : Partitioning.t) (c : Advisor.replica_change) =
  let out = Partitioning.copy part in
  out.Partitioning.placed.(c.Advisor.attr).(c.Advisor.site) <-
    (c.Advisor.action = `Add);
  out

let test_advisor_deltas_exact () =
  List.iter
    (fun seed ->
       let inst = small_instance ~txns:5 seed in
       let stats = Stats.compute inst ~p:8. in
       let sa =
         Sa_solver.solve
           ~options:{ Sa_solver.default_options with Sa_solver.num_sites = 3;
                      lambda = 0.9 }
           inst
       in
       let part = sa.Sa_solver.partitioning in
       let r = Advisor.analyze inst ~p:8. part in
       Alcotest.(check (float 1e-9)) "base cost"
         (Cost_model.cost stats part) r.Advisor.base_cost;
       (* every reported delta equals the recomputed cost difference *)
       List.iter
         (fun m ->
            let after = apply_txn_move part stats m in
            let expected = Cost_model.cost stats after -. r.Advisor.base_cost in
            if Float.abs (expected -. m.Advisor.delta)
               > 1e-6 *. (1. +. Float.abs expected)
            then
              Alcotest.failf "seed %d: txn move delta %.9g <> recomputed %.9g"
                seed m.Advisor.delta expected)
         r.Advisor.txn_moves;
       List.iter
         (fun c ->
            let after = apply_replica_change part c in
            (* drops are only reported when legal *)
            (match Partitioning.validate stats after with
             | Ok () -> ()
             | Error e -> Alcotest.failf "seed %d: illegal change offered: %s" seed e);
            let expected = Cost_model.cost stats after -. r.Advisor.base_cost in
            if Float.abs (expected -. c.Advisor.delta)
               > 1e-6 *. (1. +. Float.abs expected)
            then
              Alcotest.failf "seed %d: replica delta %.9g <> recomputed %.9g" seed
                c.Advisor.delta expected)
         r.Advisor.replica_changes)
    [ 1; 2; 3; 4 ]

let test_advisor_optimum_is_local_optimum () =
  (* at lambda = 1 the QP optimum admits no improving single move *)
  List.iter
    (fun seed ->
       let inst = small_instance ~txns:4 seed in
       let qp =
         Qp_solver.solve
           ~options:{ Qp_solver.default_options with Qp_solver.num_sites = 2;
                      lambda = 1.0; gap = 1e-9; time_limit = 30. }
           inst
       in
       match qp.Qp_solver.outcome, qp.Qp_solver.partitioning with
       | Qp_solver.Proved_optimal, Some part ->
         let r = Advisor.analyze inst ~p:8. part in
         let best = Advisor.best_improvement r in
         if best < -1e-6 *. (1. +. r.Advisor.base_cost) then
           Alcotest.failf "seed %d: optimum improvable by %.9g" seed best
       | _ -> Alcotest.failf "seed %d: QP not optimal" seed)
    [ 1; 2; 3; 4; 5 ]

let test_advisor_pp () =
  let inst = Lazy.force Tpcc.instance in
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with Sa_solver.num_sites = 2;
                 lambda = 0.9 }
      inst
  in
  let r = Advisor.analyze inst ~p:8. sa.Sa_solver.partitioning in
  let text = Format.asprintf "%a" (Advisor.pp inst ~limit:5) r in
  Alcotest.(check bool) "mentions base cost" true
    (String.length text > 100);
  Alcotest.(check bool) "has txn moves" true (r.Advisor.txn_moves <> [])

(* ------------------------------------------------------------------ *)
(* Partitioning codec                                                  *)
(* ------------------------------------------------------------------ *)

let test_partitioning_roundtrip () =
  let inst = Lazy.force Tpcc.instance in
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with Sa_solver.num_sites = 3;
                 lambda = 0.9 }
      inst
  in
  let part = sa.Sa_solver.partitioning in
  let json = Codec.partitioning_to_json inst part in
  let back = Codec.partitioning_of_json inst (Json.of_string (Json.to_string json)) in
  Alcotest.(check bool) "roundtrip equal" true (Partitioning.equal part back)

let test_partitioning_codec_errors () =
  let inst = Lazy.force Tpcc.instance in
  let expect_invalid s =
    match Codec.partitioning_of_json inst (Json.of_string s) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* unknown transaction *)
  expect_invalid
    {| {"num_sites": 1,
        "sites": [{"site": 0, "transactions": ["Nope"], "attributes": []}]} |};
  (* unassigned transactions *)
  expect_invalid {| {"num_sites": 1, "sites": []} |};
  (* site out of range *)
  expect_invalid
    {| {"num_sites": 1,
        "sites": [{"site": 3, "transactions": [], "attributes": []}]} |};
  (* unknown attribute *)
  expect_invalid
    {| {"num_sites": 1,
        "sites": [{"site": 0,
                   "transactions": ["NewOrder","Payment","OrderStatus",
                                    "Delivery","StockLevel"],
                   "attributes": ["Stock.NOPE"]}]} |}

let () =
  Alcotest.run "extensions"
    [ ("restrict",
       [ Alcotest.test_case "basic" `Quick test_restrict_basic;
         Alcotest.test_case "errors" `Quick test_restrict_errors;
         Alcotest.test_case "cost additivity" `Quick test_restrict_cost_additivity;
       ]);
      ("iterative",
       [ Alcotest.test_case "weights" `Quick test_weights;
         Alcotest.test_case "single round = QP" `Quick
           test_iterative_single_round_equals_qp;
         Alcotest.test_case "valid and bounded" `Slow test_iterative_valid_and_bounded;
         Alcotest.test_case "rounds grow" `Quick test_iterative_rounds_grow;
       ]);
      ("latency",
       [ Alcotest.test_case "matches brute force" `Slow
           test_qp_latency_matches_brute_force;
         Alcotest.test_case "huge penalty forces locality" `Quick
           test_huge_latency_penalty_forces_locality;
         Alcotest.test_case "reduces remote writes" `Quick
           test_latency_reduces_remote_writes;
         Alcotest.test_case "objective6 includes the latency term" `Quick
           test_objective6_includes_latency;
       ]);
      ("advisor",
       [ Alcotest.test_case "deltas exact" `Quick test_advisor_deltas_exact;
         Alcotest.test_case "optimum is local optimum" `Slow
           test_advisor_optimum_is_local_optimum;
         Alcotest.test_case "pretty print" `Quick test_advisor_pp;
       ]);
      ("partitioning codec",
       [ Alcotest.test_case "roundtrip" `Quick test_partitioning_roundtrip;
         Alcotest.test_case "errors" `Quick test_partitioning_codec_errors;
       ]);
    ]
