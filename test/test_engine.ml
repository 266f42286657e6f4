(* Tests for the storage-engine simulator: its measured counters must agree
   with the analytic cost model. *)

open Vpart

let tpcc () = Lazy.force Tpcc.instance

let feq = Alcotest.(check (float 1e-6))

let test_single_site_matches_breakdown () =
  let inst = tpcc () in
  let part = Partitioning.single_site inst in
  let eng = Engine.deploy inst part in
  let c = Engine.run_workload eng in
  let b = Cost_model.breakdown inst part in
  feq "reads" b.Cost_model.read_local c.Engine.bytes_read;
  feq "writes" b.Cost_model.write_local c.Engine.bytes_written;
  feq "transfer" b.Cost_model.transfer c.Engine.bytes_transferred;
  Alcotest.(check int) "no remote writes on one site" 0 c.Engine.remote_write_queries

let test_partitioned_matches_breakdown () =
  let inst = tpcc () in
  let stats = Stats.compute inst ~p:8. in
  List.iter
    (fun num_sites ->
       let sa =
         Sa_solver.solve
           ~options:{ Sa_solver.default_options with Sa_solver.num_sites; lambda = 0.9 }
           inst
       in
       let part = sa.Sa_solver.partitioning in
       let c = Engine.run_workload (Engine.deploy inst part) in
       let b = Cost_model.breakdown inst part in
       feq "reads" b.Cost_model.read_local c.Engine.bytes_read;
       feq "writes" b.Cost_model.write_local c.Engine.bytes_written;
       feq "transfer" b.Cost_model.transfer c.Engine.bytes_transferred;
       (* total cost identity through the engine *)
       feq "engine reproduces objective (4)"
         (Cost_model.cost stats part)
         (c.Engine.bytes_read +. c.Engine.bytes_written
          +. (8. *. c.Engine.bytes_transferred)))
    [ 2; 3 ]

let test_fractions () =
  let inst = tpcc () in
  let part = Partitioning.single_site inst in
  let eng = Engine.deploy inst part ~table_rows:Tpcc.cardinalities in
  let fr = Engine.fractions eng in
  Alcotest.(check int) "one fraction per table" 9 (List.length fr);
  let customer = Schema.find_table inst.Instance.schema "Customer" in
  Alcotest.(check int) "customer fraction = full row" 679
    (Engine.fraction_width eng ~table:customer ~site:0);
  let stock_fr = List.find (fun f -> f.Engine.f_table <> customer) fr in
  Alcotest.(check bool) "rows from cardinalities" true (stock_fr.Engine.f_rows > 0);
  let storage = Engine.storage_bytes_per_site eng in
  Alcotest.(check int) "one site" 1 (Array.length storage);
  Alcotest.(check bool) "storage positive" true (storage.(0) > 0.)

let test_fraction_widths_shrink () =
  let inst = tpcc () in
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with Sa_solver.num_sites = 2; lambda = 0.9 }
      inst
  in
  let eng = Engine.deploy inst sa.Sa_solver.partitioning in
  let customer = Schema.find_table inst.Instance.schema "Customer" in
  let full = Schema.row_width inst.Instance.schema customer in
  let w0 = Engine.fraction_width eng ~table:customer ~site:0 in
  let w1 = Engine.fraction_width eng ~table:customer ~site:1 in
  Alcotest.(check bool) "customer is split or replicated sensibly" true
    (w0 + w1 >= full);
  Alcotest.(check bool) "some site has a narrower customer row" true
    (min w0 w1 < full || w0 = full || w1 = full)

let test_execute_transaction () =
  let inst = tpcc () in
  let eng = Engine.deploy inst (Partitioning.single_site inst) in
  (* NewOrder is transaction 0; all its queries count *)
  let c = Engine.execute_transaction eng 0 in
  Alcotest.(check int) "12 queries in NewOrder" 12 c.Engine.queries_executed;
  Alcotest.(check bool) "bytes read" true (c.Engine.bytes_read > 0.);
  Alcotest.(check bool) "bytes written" true (c.Engine.bytes_written > 0.);
  feq "no transfer on one site" 0. c.Engine.bytes_transferred

let test_trace_determinism () =
  let inst = tpcc () in
  let eng = Engine.deploy inst (Partitioning.single_site inst) in
  let c1 = Engine.run_trace eng ~seed:7 ~length:100 in
  let c2 = Engine.run_trace eng ~seed:7 ~length:100 in
  feq "deterministic trace" c1.Engine.bytes_read c2.Engine.bytes_read;
  let c3 = Engine.run_trace eng ~seed:8 ~length:100 in
  Alcotest.(check bool) "different seed differs" true
    (c1.Engine.bytes_read <> c3.Engine.bytes_read)

let test_weighted_trace () =
  (* Voter's Vote transaction carries ~97% of the frequency: a weighted
     trace must be dominated by it (writes), a uniform one must not. *)
  let inst = Lazy.force Voter.instance in
  let eng = Engine.deploy inst (Partitioning.single_site inst) in
  let uniform = Engine.run_trace eng ~seed:3 ~length:3000 in
  let weighted = Engine.run_trace ~weighted:true eng ~seed:3 ~length:3000 in
  (* Vote has 5 queries, the others 2 and 1: weighted trace executes more
     queries because Vote dominates *)
  Alcotest.(check bool) "weighted favors the hot transaction" true
    (weighted.Engine.queries_executed > uniform.Engine.queries_executed)

let test_failure_analysis () =
  let inst = tpcc () in
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with Sa_solver.num_sites = 3;
                 lambda = 0.9 }
      inst
  in
  let eng = Engine.deploy inst sa.Sa_solver.partitioning in
  for failed = 0 to 2 do
    let r = Engine.survive_site_failure eng ~failed in
    Alcotest.(check int) "total" 5 r.Engine.total_txns;
    Alcotest.(check bool) "weight within [0,1]" true
      (r.Engine.runnable_weight >= 0. && r.Engine.runnable_weight <= 1.);
    Alcotest.(check bool) "runnable <= total" true
      (r.Engine.runnable_txns <= r.Engine.total_txns)
  done;
  (* a fully replicated layout survives any single failure *)
  let full =
    let part =
      Partitioning.create ~num_sites:2
        ~num_txns:(Instance.num_transactions inst)
        ~num_attrs:(Instance.num_attrs inst)
    in
    Array.iter (fun row -> Array.fill row 0 2 true) part.Partitioning.placed;
    part
  in
  let eng = Engine.deploy inst full in
  let r = Engine.survive_site_failure eng ~failed:0 in
  Alcotest.(check int) "all runnable under full replication" 5
    r.Engine.runnable_txns;
  Alcotest.(check int) "nothing lost" 0 r.Engine.lost_attrs;
  (* error paths *)
  (match Engine.survive_site_failure eng ~failed:9 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected range error");
  let single = Engine.deploy inst (Partitioning.single_site inst) in
  match Engine.survive_site_failure single ~failed:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected single-site error"

let test_repetitions_scale () =
  let inst = tpcc () in
  let eng = Engine.deploy inst (Partitioning.single_site inst) in
  let once = Engine.run_workload eng in
  let thrice = Engine.run_workload ~repetitions:3 eng in
  feq "3x reads" (3. *. once.Engine.bytes_read) thrice.Engine.bytes_read;
  Alcotest.(check int) "3x queries" (3 * once.Engine.queries_executed)
    thrice.Engine.queries_executed

let test_invalid_partitioning_rejected () =
  let inst = tpcc () in
  let bad =
    Partitioning.create ~num_sites:2
      ~num_txns:(Instance.num_transactions inst)
      ~num_attrs:(Instance.num_attrs inst)
  in
  match Engine.deploy inst bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Property: engine counters equal the analytic breakdown, and reproduce
   objective (4), on random instances of 1-4 tables and 1-5 transactions
   at any update share, under random (repaired) partitionings over 1-4
   sites with any replica density. *)
let prop_engine_matches_model =
  QCheck2.Test.make ~count:250 ~name:"engine counters = cost-model breakdown"
    ~print:(fun (seed, tables, txns, updates, sites, replica) ->
        Printf.sprintf
          "seed %d, %d tables, %d txns, %d%% updates, %d sites, replica %g"
          seed tables txns updates sites replica)
    QCheck2.Gen.(
      tup6 (int_range 0 5000) (int_range 1 4) (int_range 1 5)
        (int_range 0 100) (int_range 1 4) (float_range 0. 1.))
    (fun (seed, num_tables, num_transactions, update_percent, num_sites,
          replica) ->
       let params =
         { Instance_gen.default_params with
           Instance_gen.name = Printf.sprintf "eng%d" seed;
           num_tables;
           num_transactions;
           update_percent;
         }
       in
       let inst = Instance_gen.generate ~seed params in
       let p = 8. in
       let stats = Stats.compute inst ~p in
       let rng = Rng.create seed in
       let part =
         Partitioning.create ~num_sites
           ~num_txns:(Instance.num_transactions inst)
           ~num_attrs:(Instance.num_attrs inst)
       in
       Array.iteri
         (fun t _ -> part.Partitioning.txn_site.(t) <- Rng.int rng num_sites)
         part.Partitioning.txn_site;
       Array.iter
         (fun row -> Array.iteri (fun s _ -> row.(s) <- Rng.bool rng replica) row)
         part.Partitioning.placed;
       Partitioning.repair_single_sitedness stats part;
       let c = Engine.run_workload (Engine.deploy inst part) in
       let b = Cost_model.breakdown inst part in
       let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs b) in
       close c.Engine.bytes_read b.Cost_model.read_local
       && close c.Engine.bytes_written b.Cost_model.write_local
       && close c.Engine.bytes_transferred b.Cost_model.transfer
       && close
            (c.Engine.bytes_read +. c.Engine.bytes_written
             +. (p *. c.Engine.bytes_transferred))
            (Cost_model.cost stats part))

let () =
  Alcotest.run "engine"
    [ ("agreement",
       [ Alcotest.test_case "single site" `Quick test_single_site_matches_breakdown;
         Alcotest.test_case "partitioned" `Quick test_partitioned_matches_breakdown;
       ]);
      ("deployment",
       [ Alcotest.test_case "fractions" `Quick test_fractions;
         Alcotest.test_case "fraction widths" `Quick test_fraction_widths_shrink;
         Alcotest.test_case "invalid rejected" `Quick test_invalid_partitioning_rejected;
       ]);
      ("execution",
       [ Alcotest.test_case "transaction" `Quick test_execute_transaction;
         Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
         Alcotest.test_case "weighted trace" `Quick test_weighted_trace;
         Alcotest.test_case "repetitions" `Quick test_repetitions_scale;
       ]);
      ("failure",
       [ Alcotest.test_case "site failure analysis" `Quick test_failure_analysis ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_engine_matches_model ]);
    ]
