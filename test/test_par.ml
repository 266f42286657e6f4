(* Tests for the Par domain-pool executor, Rng.split, and the parallel
   solver paths (Mip ~jobs, Sa_solver restarts/jobs, certify under
   --jobs-style options).

   The key contracts under test:
   - Par.map_* return results in submission order for every jobs value;
   - the MIP search is deterministic at jobs = 1, and restarts = 1 takes
     the sequential SA path bit for bit (guarded by comparing against a
     reference sequential run);
   - the parallel MIP proves the same objective as the sequential search
     within limits.gap;
   - the SA portfolio is never worse than the restarts = 1 run on the
     same seed;
   - every bundled instance certifies cleanly under jobs = 4. *)

open Vpart

(* ------------------------------------------------------------------ *)
(* Par executor                                                        *)
(* ------------------------------------------------------------------ *)

let test_map_ordering () =
  List.iter
    (fun jobs ->
       let input = List.init 100 Fun.id in
       let out =
         Par.with_pool ~jobs (fun pool -> Par.map_list pool (fun x -> x * x) input)
       in
       Alcotest.(check (list int))
         (Printf.sprintf "squares in order (jobs=%d)" jobs)
         (List.map (fun x -> x * x) input)
         out)
    [ 1; 2; 3; 8 ]

let test_map_array () =
  let input = Array.init 257 Fun.id in
  let out =
    Par.with_pool ~jobs:4 (fun pool ->
        Par.map_array pool (fun x -> x + 1) input)
  in
  Alcotest.(check (array int)) "array map" (Array.map (fun x -> x + 1) input) out

let test_run_list_runs_everything () =
  List.iter
    (fun n ->
       let hits = Atomic.make 0 in
       Par.with_pool ~jobs:3 (fun pool ->
           Par.run_list pool
             (List.init n (fun _ () -> Atomic.incr hits)));
       Alcotest.(check int) (Printf.sprintf "%d tasks ran" n) n (Atomic.get hits))
    [ 0; 1; 2; 7; 64 ]

let test_pool_reuse () =
  (* Consecutive batches on one pool work; the pool survives a batch
     whose tasks are trivial (workers may never win a steal). *)
  Par.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check int) "size" 2 (Par.size pool);
      for round = 1 to 5 do
        let out = Par.map_list pool (fun x -> x + round) [ 1; 2; 3 ] in
        Alcotest.(check (list int))
          "batch result"
          [ 1 + round; 2 + round; 3 + round ]
          out
      done)

let test_exception_propagates () =
  List.iter
    (fun jobs ->
       let ran = Atomic.make 0 in
       match
         Par.with_pool ~jobs (fun pool ->
             Par.run_list pool
               (List.init 10 (fun i () ->
                    Atomic.incr ran;
                    if i = 5 then failwith "task five")))
       with
       | () -> Alcotest.fail "expected the task exception to re-raise"
       | exception Failure msg ->
         Alcotest.(check string) "the task's exception" "task five" msg;
         (* no task is abandoned: the batch drains before re-raising *)
         Alcotest.(check int) "all tasks still ran" 10 (Atomic.get ran))
    [ 1; 3 ]

let test_worker_index_in_range () =
  let jobs = 4 in
  let seen =
    Par.with_pool ~jobs (fun pool ->
        Par.map_list pool (fun _ -> Par.worker_index ()) (List.init 64 Fun.id))
  in
  List.iter
    (fun ix ->
       Alcotest.(check bool)
         (Printf.sprintf "index %d in [0,%d)" ix jobs)
         true
         (ix >= 0 && ix < jobs))
    seen;
  Alcotest.(check int) "outside any pool" 0 (Par.worker_index ())

let test_degenerate_pool () =
  (* jobs = 1 runs on the caller, sequentially, in submission order. *)
  let order = ref [] in
  Par.with_pool ~jobs:1 (fun pool ->
      Par.run_list pool
        (List.init 5 (fun i () -> order := i :: !order)));
  Alcotest.(check (list int)) "sequential order" [ 4; 3; 2; 1; 0 ] !order;
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Par.create: jobs must be >= 1") (fun () ->
      ignore (Par.create ~jobs:0))

(* ------------------------------------------------------------------ *)
(* Rng.split                                                           *)
(* ------------------------------------------------------------------ *)

let test_split_shapes () =
  let r = Rng.create 7 in
  Alcotest.(check int) "split 0 is empty" 0 (Array.length (Rng.split r 0));
  Alcotest.(check int) "split 5 has 5" 5 (Array.length (Rng.split (Rng.create 7) 5))

let test_split_deterministic () =
  let draw rng = List.init 8 (fun _ -> Rng.int rng 1_000_000) in
  let a = Rng.split (Rng.create 42) 4 and b = Rng.split (Rng.create 42) 4 in
  Array.iteri
    (fun i ra ->
       Alcotest.(check (list int))
         (Printf.sprintf "child %d reproducible" i)
         (draw ra) (draw b.(i)))
    a

let test_split_streams_distinct () =
  (* Children differ from each other and from the parent's continuation:
     compare a prefix of each stream. *)
  let parent = Rng.create 9 in
  let children = Rng.split parent 6 in
  let prefix rng = List.init 16 (fun _ -> Rng.int rng 1_000_000_000) in
  let streams = prefix parent :: Array.to_list (Array.map prefix children) in
  let rec all_distinct = function
    | [] -> true
    | s :: rest -> (not (List.mem s rest)) && all_distinct rest
  in
  Alcotest.(check bool) "7 pairwise-distinct streams" true (all_distinct streams)

let test_split_differs_from_copy () =
  let parent = Rng.create 11 in
  let copy = Rng.copy parent in
  let child = (Rng.split parent 1).(0) in
  (* the copy replays the parent (post-split) stream; the child must not *)
  Alcotest.(check bool) "child is not the parent stream" true
    (List.init 8 (fun _ -> Rng.int child 1_000_000)
     <> List.init 8 (fun _ -> Rng.int copy 1_000_000))

(* ------------------------------------------------------------------ *)
(* Parallel MIP vs sequential                                          *)
(* ------------------------------------------------------------------ *)

type knap = { values : int list; weights : int list; cap : int }

let gen_knap =
  let open QCheck2.Gen in
  let* n = int_range 4 14 in
  let* values = list_size (return n) (int_range 1 50) in
  let* weights = list_size (return n) (int_range 1 20) in
  let total = List.fold_left ( + ) 0 weights in
  let* cap = int_range 1 (max 1 total) in
  return { values; weights; cap }

let knap_model k =
  let m = Lp.create () in
  let vars = List.map (fun _ -> Lp.binary m ()) k.values in
  Lp.add_constr m
    (List.map2 (fun w v -> (float_of_int w, v)) k.weights vars)
    Lp.Le (float_of_int k.cap);
  Lp.set_objective m Lp.Maximize
    (List.map2 (fun value v -> (float_of_int value, v)) k.values vars);
  m

let limits = { Mip.default_limits with Mip.gap = 1e-9; time_limit = Some 30. }

(* (e): the parallel search proves the same objective as the sequential
   one, within limits.gap. *)
let prop_par_mip_matches_sequential =
  QCheck2.Test.make ~count:60
    ~name:"parallel MIP objective = sequential within gap" gen_knap
    (fun k ->
       let solve jobs = Mip.solve ~limits ~jobs (knap_model k) in
       match (solve 1, solve 3) with
       | (Mip.Optimal seq, _), (Mip.Optimal par, pstats) ->
         let tol = limits.Mip.gap *. (1. +. Float.abs seq.Mip.obj) +. 1e-9 in
         Float.abs (seq.Mip.obj -. par.Mip.obj) <= tol
         && pstats.Mip.gap_achieved <= limits.Mip.gap +. 1e-12
       | (Mip.Infeasible, _), (Mip.Infeasible, _) -> true
       | _ -> false)

(* (e): at a fixed jobs = 1 the search is deterministic — two solves give
   the same outcome, node count, iteration count and bound support. *)
let prop_jobs1_deterministic =
  QCheck2.Test.make ~count:40 ~name:"Mip ~jobs:1 is deterministic" gen_knap
    (fun k ->
       let out_a, st_a = Mip.solve ~limits ~jobs:1 (knap_model k) in
       let out_b, st_b = Mip.solve ~limits ~jobs:1 (knap_model k) in
       out_a = out_b
       && st_a.Mip.nodes = st_b.Mip.nodes
       && st_a.Mip.simplex_iterations = st_b.Mip.simplex_iterations
       && st_a.Mip.gap_achieved = st_b.Mip.gap_achieved
       && st_a.Mip.audit.Mip.bound_support = st_b.Mip.audit.Mip.bound_support
       && st_a.Mip.audit.Mip.proven_bound = st_b.Mip.audit.Mip.proven_bound)

(* The parallel solve's own claims certify: proven bound = min of the
   bound support, incumbent feasible, gap arithmetic consistent. *)
let prop_par_mip_certifies =
  QCheck2.Test.make ~count:40 ~name:"parallel MIP claims certify" gen_knap
    (fun k ->
       let m = knap_model k in
       let out, stats = Mip.solve ~limits ~jobs:4 m in
       let ds = Vpart_certify.Certify.certify_mip m out stats in
       List.for_all
         (fun d ->
            d.Vpart_analysis.Diagnostic.severity
            <> Vpart_analysis.Diagnostic.Error)
         ds)

(* ------------------------------------------------------------------ *)
(* SA portfolio                                                        *)
(* ------------------------------------------------------------------ *)

let small_instance seed =
  Instance_gen.generate ~seed
    { Instance_gen.default_params with
      Instance_gen.name = Printf.sprintf "par-small%d" seed;
      num_tables = 3;
      num_transactions = 4;
      max_attrs_per_table = 4;
      max_queries_per_txn = 2;
      update_percent = 30;
      max_tables_per_query = 2;
      max_attrs_per_query = 4;
    }

let sa_options ?(restarts = 1) ?(jobs = 1) ?(allow_replication = true) seed =
  { Sa_solver.default_options with
    Sa_solver.num_sites = 2;
    lambda = 0.9;
    seed;
    allow_replication;
    restarts;
    jobs;
  }

(* (e): the portfolio's best is never worse than the restarts = 1 run on
   the same seed (chain 0 anneals exactly that stream, and exchanges
   only ever lower a chain's reported best). *)
let prop_portfolio_not_worse =
  QCheck2.Test.make ~count:20
    ~name:"SA portfolio <= sequential run on same seed"
    QCheck2.Gen.(pair (int_range 0 1000) bool)
    (fun (seed, repl) ->
       let inst = small_instance (seed land 255) in
       let seq =
         Sa_solver.solve ~options:(sa_options ~allow_replication:repl seed) inst
       in
       let par =
         Sa_solver.solve
           ~options:(sa_options ~restarts:3 ~jobs:2 ~allow_replication:repl seed)
           inst
       in
       Array.length par.Sa_solver.chains = 3
       && par.Sa_solver.objective6
          <= seq.Sa_solver.objective6
             +. 1e-6 *. (1. +. Float.abs seq.Sa_solver.objective6))

(* (e): restarts = 1 is the pre-portfolio sequential path — identical
   results whatever the jobs setting. *)
let prop_sa_restarts1_bit_identical =
  QCheck2.Test.make ~count:15 ~name:"SA restarts=1 identical for every jobs"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
       let inst = small_instance (seed land 255) in
       let a = Sa_solver.solve ~options:(sa_options ~jobs:1 seed) inst in
       let b = Sa_solver.solve ~options:(sa_options ~jobs:4 seed) inst in
       a.Sa_solver.cost = b.Sa_solver.cost
       && a.Sa_solver.objective6 = b.Sa_solver.objective6
       && a.Sa_solver.search = b.Sa_solver.search
       && a.Sa_solver.partitioning = b.Sa_solver.partitioning
       && Array.length a.Sa_solver.chains = 1)

let test_sa_portfolio_valid_and_certified () =
  let inst = Lazy.force Smallbank.instance in
  let r =
    Sa_solver.solve
      ~options:
        { (sa_options ~restarts:4 ~jobs:2 1) with Sa_solver.certify = true }
      inst
  in
  Alcotest.(check int) "4 chains" 4 (Array.length r.Sa_solver.chains);
  Array.iter
    (fun (c : Sa_solver.search_stats) ->
       Alcotest.(check bool) "chain moved" true (c.Sa_solver.moves > 0))
    r.Sa_solver.chains;
  match r.Sa_solver.certificate with
  | Some [] -> ()
  | Some ds ->
    Alcotest.failf "portfolio certificate has findings: %a"
      (Format.pp_print_list Vpart_analysis.Diagnostic.pp)
      ds
  | None -> Alcotest.fail "certificate requested but absent"

(* ------------------------------------------------------------------ *)
(* Bundled instances certify under jobs = 4                            *)
(* ------------------------------------------------------------------ *)

let bundled =
  [ "rndAt8x15.json"; "rndBt16x15.json"; "smallbank.json"; "tatp.json";
    "tpcc.json"; "voter.json" ]

let test_certify_under_jobs4 () =
  List.iter
    (fun file ->
       let dir =
         if Sys.file_exists "instances" then "instances" else "../instances"
       in
       let inst = Codec.load_instance (Filename.concat dir file) in
       let r =
         Qp_solver.solve
           ~options:
             { Qp_solver.default_options with
               Qp_solver.num_sites = 2;
               lambda = 0.9;
               time_limit = 10.;
               gap = 0.01;
               certify = true;
               jobs = 4;
             }
           inst
       in
       match r.Qp_solver.certificate with
       | Some ds when Vpart_analysis.Diagnostic.has_errors ds ->
         Alcotest.failf "%s: certification errors under jobs=4: %a" file
           (Format.pp_print_list Vpart_analysis.Diagnostic.pp)
           (Vpart_analysis.Diagnostic.errors ds)
       | _ -> ())
    bundled

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [ ("executor",
       [ Alcotest.test_case "map ordering" `Quick test_map_ordering;
         Alcotest.test_case "map array" `Quick test_map_array;
         Alcotest.test_case "run_list completes" `Quick
           test_run_list_runs_everything;
         Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
         Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "worker index" `Quick test_worker_index_in_range;
         Alcotest.test_case "degenerate pool" `Quick test_degenerate_pool;
       ]);
      ("rng-split",
       [ Alcotest.test_case "shapes" `Quick test_split_shapes;
         Alcotest.test_case "deterministic" `Quick test_split_deterministic;
         Alcotest.test_case "streams distinct" `Quick test_split_streams_distinct;
         Alcotest.test_case "split is not copy" `Quick test_split_differs_from_copy;
       ]);
      ("parallel-mip",
       [ QCheck_alcotest.to_alcotest prop_par_mip_matches_sequential;
         QCheck_alcotest.to_alcotest prop_jobs1_deterministic;
         QCheck_alcotest.to_alcotest prop_par_mip_certifies;
       ]);
      ("sa-portfolio",
       [ QCheck_alcotest.to_alcotest prop_portfolio_not_worse;
         QCheck_alcotest.to_alcotest prop_sa_restarts1_bit_identical;
         Alcotest.test_case "portfolio certified" `Slow
           test_sa_portfolio_valid_and_certified;
       ]);
      ("certify-jobs4",
       [ Alcotest.test_case "all bundled instances" `Slow
           test_certify_under_jobs4;
       ]);
    ]
