(* Deepening coverage: option variants, limits, edge cases and reporting
   paths not exercised by the module-focused suites. *)

open Vpart

let small_instance seed =
  let params =
    { Instance_gen.default_params with
      Instance_gen.name = Printf.sprintf "cov%d" seed;
      num_tables = 3;
      num_transactions = 6;
      max_attrs_per_table = 5;
      update_percent = 30;
    }
  in
  Instance_gen.generate ~seed params

(* ------------------------------------------------------------------ *)
(* Rng distribution sanity                                             *)
(* ------------------------------------------------------------------ *)

let test_rng_uniformity () =
  let rng = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
       let share = float_of_int c /. float_of_int n in
       if share < 0.08 || share > 0.12 then
         Alcotest.failf "bucket %d share %.3f out of range" i share)
    buckets;
  (* floats stay in [0,1) and are not constant *)
  let rng = Rng.create 3 in
  let mn = ref 1. and mx = ref 0. in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range";
    if f < !mn then mn := f;
    if f > !mx then mx := f
  done;
  Alcotest.(check bool) "spread" true (!mx -. !mn > 0.9)

let test_rng_sample_distinct () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let s = Rng.sample_distinct rng 4 10 in
    Alcotest.(check int) "size" 4 (List.length s);
    Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> if x < 0 || x >= 10 then Alcotest.fail "range") s
  done;
  let all = Rng.sample_distinct rng 20 5 in
  Alcotest.(check (list int)) "k >= n returns all" [ 0; 1; 2; 3; 4 ]
    (List.sort compare all);
  (* The in-place form draws the same values in the same order and
     leaves the generator in the same state. *)
  let perm = Array.make 10 (-1) in
  List.iter
    (fun k ->
       let a = Rng.create (k + 11) and b = Rng.create (k + 11) in
       let want = Rng.sample_distinct a k 10 in
       let m = Rng.sample_distinct_into b k perm in
       Alcotest.(check (list int)) "same draws" want
         (List.init m (fun i -> perm.(i)));
       Alcotest.(check int) "same state" (Rng.int a 1000) (Rng.int b 1000))
    [ 0; 1; 3; 4; 9; 10; 15 ]

(* ------------------------------------------------------------------ *)
(* Solver option variants                                              *)
(* ------------------------------------------------------------------ *)

let test_sa_option_variants () =
  let inst = small_instance 2 in
  let stats = Stats.compute inst ~p:8. in
  List.iter
    (fun (inner, freeze) ->
       let options =
         { Sa_solver.default_options with
           Sa_solver.num_sites = 3; lambda = 0.9;
           inner_loops = inner; freeze_ratio = freeze }
       in
       let r = Sa_solver.solve ~options inst in
       match Partitioning.validate stats r.Sa_solver.partitioning with
       | Ok () -> ()
       | Error e -> Alcotest.failf "L = %d, freeze %g: %s" inner freeze e)
    [ (5, 0.1); (80, 1e-4); (1, 1e-3) ]

let test_sa_time_limit () =
  let inst = small_instance 3 in
  let options =
    { Sa_solver.default_options with
      Sa_solver.num_sites = 2; lambda = 0.9; time_limit = Some 0.001;
      max_outer = 1_000_000 }
  in
  let t0 = Unix.gettimeofday () in
  let r = Sa_solver.solve ~options inst in
  Alcotest.(check bool) "stops quickly" true (Unix.gettimeofday () -. t0 < 5.);
  let stats = Stats.compute inst ~p:8. in
  match Partitioning.validate stats r.Sa_solver.partitioning with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_mip_node_limit () =
  (* a node limit of 1 still yields a vetted incumbent via the heuristic
     or reports honestly *)
  let inst = small_instance 4 in
  let options =
    { Qp_solver.default_options with
      Qp_solver.num_sites = 2; lambda = 0.9; time_limit = 30. }
  in
  let grouping = Grouping.compute inst in
  let stats = Stats.compute grouping.Grouping.reduced ~p:8. in
  let model, _ = Qp_solver.build_model stats options in
  let limits = { Mip.default_limits with Mip.node_limit = Some 1; gap = 1e-9 } in
  match Mip.solve ~limits model with
  | (Mip.Optimal _ | Mip.Feasible _ | Mip.No_incumbent _), stats' ->
    Alcotest.(check bool) "node count respected" true (stats'.Mip.nodes <= 2)
  | (Mip.Infeasible | Mip.Unbounded | Mip.Too_large _), _ ->
    Alcotest.fail "unexpected outcome"

let test_qp_lambda_zero () =
  (* pure load balancing: still returns a valid partitioning *)
  let inst = small_instance 5 in
  let r =
    Qp_solver.solve
      ~options:{ Qp_solver.default_options with Qp_solver.num_sites = 3;
                 lambda = 0.; time_limit = 30. }
      inst
  in
  match r.Qp_solver.partitioning with
  | Some part ->
    let stats = Stats.compute inst ~p:8. in
    (match Partitioning.validate stats part with
     | Ok () -> ()
     | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "no solution"

let test_iterative_time_budget_split () =
  let inst = small_instance 6 in
  let options =
    { Iterative_solver.default_options with
      Iterative_solver.rounds = 3;
      qp = { Qp_solver.default_options with
             Qp_solver.num_sites = 2; lambda = 0.9; time_limit = 9. };
    }
  in
  let r = Iterative_solver.solve ~options inst in
  (* three rounds, each within its ~3s share *)
  List.iter
    (fun (info : Iterative_solver.round_info) ->
       Alcotest.(check bool) "round within budget" true
         (info.Iterative_solver.elapsed <= 4.))
    r.Iterative_solver.rounds

(* ------------------------------------------------------------------ *)
(* Reporting paths                                                     *)
(* ------------------------------------------------------------------ *)

let test_row_width_reduction () =
  let inst = Lazy.force Tpcc.instance in
  let single = Partitioning.single_site inst in
  let rows = Report.row_width_reduction inst single in
  Alcotest.(check int) "one entry per table" 9 (List.length rows);
  List.iter
    (fun (_, full, avg) ->
       Alcotest.(check (float 1e-9)) "no reduction on one site"
         (float_of_int full) avg)
    rows;
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with Sa_solver.num_sites = 2;
                 lambda = 0.9 }
      inst
  in
  let rows = Report.row_width_reduction inst sa.Sa_solver.partitioning in
  let customer = List.find (fun (n, _, _) -> n = "Customer") rows in
  let _, full, avg = customer in
  Alcotest.(check bool) "customer narrowed" true (avg < float_of_int full)

let test_pp_functions_do_not_crash () =
  let inst = Lazy.force Tpcc.instance in
  let part = Partitioning.single_site inst in
  let s1 = Format.asprintf "%a" Schema.pp inst.Instance.schema in
  let s2 = Format.asprintf "%a" Workload.pp inst.Instance.workload in
  let s3 = Format.asprintf "%a" (Report.pp_partitioning inst) part in
  let s4 =
    Format.asprintf "%a" (Report.pp_solution_summary inst ~p:8. ~lambda:0.9) part
  in
  let s5 =
    Format.asprintf "%a" (Partitioning.pp_compact inst.Instance.schema
                            inst.Instance.workload) part
  in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 10))
    [ s1; s2; s3; s4; s5 ]

let test_lp_pp_stats () =
  let m = Lp.create ~name:"demo" () in
  let x = Lp.binary m () in
  Lp.add_constr m [ (1., x) ] Lp.Le 1.;
  let s = Format.asprintf "%a" Lp.pp_stats m in
  Alcotest.(check bool) "mentions name" true
    (String.length s > 0
     && (let rec has i =
           i + 4 <= String.length s && (String.sub s i 4 = "demo" || has (i + 1))
         in
         has 0))

(* ------------------------------------------------------------------ *)
(* MIP bound sandwich                                                  *)
(* ------------------------------------------------------------------ *)

let prop_lp_relaxation_bounds_mip =
  QCheck2.Test.make ~count:60 ~name:"LP relaxation lower-bounds the MIP optimum"
    QCheck2.Gen.(int_range 0 2000)
    (fun seed ->
       let inst = small_instance seed in
       let grouping = Grouping.compute inst in
       let stats = Stats.compute grouping.Grouping.reduced ~p:8. in
       let options =
         { Qp_solver.default_options with Qp_solver.num_sites = 2; lambda = 1.0 }
       in
       let model, _ = Qp_solver.build_model stats options in
       let std = Lp.standardize model in
       let lp = Simplex.solve std in
       match
         ( lp.Simplex.status,
           Mip.solve ~limits:{ Mip.default_limits with Mip.gap = 1e-9 } model )
       with
       | Simplex.Optimal, (Mip.Optimal sol, _) ->
         (* Simplex.solve's objective already includes the constant *)
         lp.Simplex.obj <= sol.Mip.obj +. 1e-6 *. (1. +. Float.abs sol.Mip.obj)
       | _ -> false)

let () =
  Alcotest.run "coverage"
    [ ("rng",
       [ Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
         Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
       ]);
      ("solver options",
       [ Alcotest.test_case "sa variants" `Quick test_sa_option_variants;
         Alcotest.test_case "sa time limit" `Quick test_sa_time_limit;
         Alcotest.test_case "mip node limit" `Quick test_mip_node_limit;
         Alcotest.test_case "qp lambda zero" `Quick test_qp_lambda_zero;
         Alcotest.test_case "iterative budget split" `Quick
           test_iterative_time_budget_split;
       ]);
      ("reporting",
       [ Alcotest.test_case "row width reduction" `Quick test_row_width_reduction;
         Alcotest.test_case "pp functions" `Quick test_pp_functions_do_not_crash;
         Alcotest.test_case "lp pp stats" `Quick test_lp_pp_stats;
       ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_lp_relaxation_bounds_mip ]);
    ]
