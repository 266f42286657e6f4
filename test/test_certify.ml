(* Tests for the certification layer: primal/dual/Farkas certificates
   (Vpart_certify.Certify) and the domain-level claim certifier
   (Vpart.Solution_certify.certify_claims) every solver path calls. *)

open Vpart
module C = Vpart_certify.Certify
module D = Vpart_analysis.Diagnostic

let exact_limits =
  { Mip.default_limits with Mip.gap = 1e-9; time_limit = Some 30. }

let get_optimal name = function
  | Mip.Optimal sol -> sol
  | out ->
    Alcotest.failf "%s: expected optimal, got %a" name Mip.pp_outcome out

let check_clean name ds =
  match D.errors ds with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "%s: unexpected certificate error: %s" name (D.to_string e)

let has_code code ds = List.mem code (D.codes ds)

(* A 2x2 assignment problem: every binary appears in two equality rows,
   so flipping any single binary provably violates a row. *)
let assignment_model () =
  let m = Lp.create () in
  let v = Array.init 4 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m [ (1., v.(0)); (1., v.(1)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(2)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(0)); (1., v.(2)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(1)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.set_objective m Lp.Minimize
    [ (4., v.(0)); (1., v.(1)); (2., v.(2)); (9., v.(3)) ];
  m

(* ------------------------------------------------------------------ *)
(* Certified clean solves                                              *)
(* ------------------------------------------------------------------ *)

let test_optimal_certifies () =
  let m = assignment_model () in
  let out, stats = Mip.solve ~limits:exact_limits m in
  ignore (get_optimal "assignment" out);
  check_clean "assignment" (C.certify_mip m out stats)

let test_node_limited_certifies () =
  (* An interrupted solve's (bound, gap) bookkeeping must still certify. *)
  let m = assignment_model () in
  let limits = { exact_limits with Mip.node_limit = Some 1 } in
  let out, stats = Mip.solve ~limits m in
  check_clean "node-limited" (C.certify_mip m out stats)

(* ------------------------------------------------------------------ *)
(* Corrupted solutions are rejected with stable codes                  *)
(* ------------------------------------------------------------------ *)

let solve_assignment () =
  let m = assignment_model () in
  let out, stats = Mip.solve ~limits:exact_limits m in
  (m, get_optimal "assignment" out, stats)

let test_flipped_binary_rejected () =
  let m, sol, stats = solve_assignment () in
  for j = 0 to Array.length sol.Mip.x - 1 do
    let x = Array.copy sol.Mip.x in
    x.(j) <- 1. -. x.(j);
    let ds = C.certify_mip m (Mip.Optimal { sol with Mip.x }) stats in
    Alcotest.(check bool)
      (Printf.sprintf "flip %d rejected" j) true (D.has_errors ds);
    Alcotest.(check bool)
      (Printf.sprintf "flip %d violates a row (C004)" j) true
      (has_code "C004" ds)
  done

let test_corrupted_objective_rejected () =
  let m, sol, stats = solve_assignment () in
  let out = Mip.Optimal { sol with Mip.obj = sol.Mip.obj +. 10. } in
  let ds = C.certify_mip m out stats in
  Alcotest.(check bool) "rejected" true (D.has_errors ds);
  Alcotest.(check bool) "claimed objective (C005)" true (has_code "C005" ds)

let test_malformed_vector_rejected () =
  let m, sol, stats = solve_assignment () in
  let out = Mip.Optimal { sol with Mip.x = [| 1.; 0. |] } in
  let ds = C.certify_mip m out stats in
  Alcotest.(check bool) "rejected" true (D.has_errors ds);
  Alcotest.(check bool) "malformed vector (C001)" true (has_code "C001" ds)

let test_fractional_rejected () =
  let m, sol, stats = solve_assignment () in
  let x = Array.copy sol.Mip.x in
  x.(0) <- 0.5;
  let ds = C.certify_mip m (Mip.Optimal { sol with Mip.x }) stats in
  Alcotest.(check bool) "rejected" true (D.has_errors ds);
  Alcotest.(check bool) "integrality (C003)" true (has_code "C003" ds)

(* ------------------------------------------------------------------ *)
(* Dual and Farkas machinery                                           *)
(* ------------------------------------------------------------------ *)

let test_lagrangian_bound_exact () =
  (* min x s.t. x >= 1, 0 <= x <= 2: y = [1] is in the cone (Ge row),
     d = 1 - 1 = 0, so L(y) = y·b = 1 = the optimum. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. () in
  Lp.add_constr m [ (1., x) ] Lp.Ge 1.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let std = Lp.standardize m in
  let y, ds = C.clamp_duals std [| 1. |] in
  Alcotest.(check int) "in-cone y untouched" 0 (List.length ds);
  Alcotest.(check (float 1e-9)) "L(y) = optimum" 1. (C.lagrangian_bound std y)

let test_clamp_out_of_cone () =
  (* y = [-1] on a Ge row is outside the dual cone: clamped + C101. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. () in
  Lp.add_constr m [ (1., x) ] Lp.Ge 1.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let std = Lp.standardize m in
  let y, ds = C.clamp_duals std [| -1. |] in
  Alcotest.(check (float 0.)) "clamped to zero" 0. y.(0);
  Alcotest.(check bool) "reported (C101)" true (has_code "C101" ds);
  (* The clamped vector still yields a valid (weaker) bound: L(0) = 0. *)
  Alcotest.(check (float 1e-9)) "bound after clamp" 0.
    (C.lagrangian_bound std y)

let test_infeasible_farkas_certifies () =
  (* x + y >= 3 over binaries is infeasible; the solver's ray must
     re-prove it and certify_mip must accept the claim. *)
  let m = Lp.create () in
  let x = Lp.binary m () and y = Lp.binary m () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 3.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let out, stats = Mip.solve ~limits:exact_limits m in
  (match out with
   | Mip.Infeasible -> ()
   | out -> Alcotest.failf "expected infeasible, got %a" Mip.pp_outcome out);
  (match stats.Mip.audit.Mip.farkas with
   | None -> Alcotest.fail "no Farkas ray returned"
   | Some ray ->
     Alcotest.(check bool) "ray proves infeasibility" true
       (C.farkas_proves_infeasible (Lp.standardize m) ray));
  check_clean "infeasible" (C.certify_mip m out stats)

let test_farkas_rejects_feasible () =
  (* No multiplier can "prove" a feasible model infeasible. *)
  let m = assignment_model () in
  let std = Lp.standardize m in
  List.iter
    (fun ray ->
       Alcotest.(check bool) "junk ray rejected" false
         (C.farkas_proves_infeasible std ray))
    [ [| 1.; 1.; 1.; 1. |]; [| -1.; 2.; 0.; 0.5 |]; [| 0.; 0.; 0.; 0. |] ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

type knap = { values : int list; weights : int list; cap : int }

let gen_knap =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
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

let prop_optimal_certifies =
  QCheck2.Test.make ~count:80
    ~name:"every Optimal outcome passes full certification" gen_knap
    (fun k ->
       let m = knap_model k in
       match Mip.solve ~limits:exact_limits m with
       | Mip.Optimal _ as out, stats ->
         not (D.has_errors (C.certify_mip m out stats))
       | _ -> false)

let prop_weak_duality =
  QCheck2.Test.make ~count:100
    ~name:"LP-relaxation duals satisfy weak duality" gen_knap
    (fun k ->
       let std = Lp.standardize (knap_model k) in
       let t = Simplex.create std in
       match Simplex.reoptimize t with
       | Simplex.Optimal ->
         let y, _ = C.clamp_duals std (Simplex.duals t) in
         let lb = C.lagrangian_bound std y in
         let obj = Lp.eval_objective std (Simplex.primal t) in
         (* all variables are boxed, so the bound is finite *)
         Float.is_finite lb && lb <= obj +. 1e-6 *. (1. +. Float.abs obj)
       | _ -> false)

type card = { costs : int list; k : int; flip : int }

let gen_card =
  let open QCheck2.Gen in
  let* n = int_range 2 10 in
  let* costs = list_size (return n) (int_range 1 50) in
  let* k = int_range 1 n in
  let* flip = int_range 0 (n - 1) in
  return { costs; k; flip }

let prop_mutated_incumbent_rejected =
  QCheck2.Test.make ~count:80
    ~name:"a mutated incumbent (one flipped binary) is always rejected"
    gen_card
    (fun c ->
       (* min-cost cardinality selection: sum x = k makes every single-bit
          flip provably infeasible. *)
       let m = Lp.create () in
       let vars = List.map (fun _ -> Lp.binary m ()) c.costs in
       Lp.add_constr m (List.map (fun v -> (1., v)) vars) Lp.Eq
         (float_of_int c.k);
       Lp.set_objective m Lp.Minimize
         (List.map2 (fun cost v -> (float_of_int cost, v)) c.costs vars);
       match Mip.solve ~limits:exact_limits m with
       | Mip.Optimal sol, stats ->
         let x = Array.copy sol.Mip.x in
         x.(c.flip) <- 1. -. x.(c.flip);
         let ds = C.certify_mip m (Mip.Optimal { sol with Mip.x }) stats in
         D.has_errors ds && has_code "C004" ds
       | _ -> false)

(* ------------------------------------------------------------------ *)
(* Domain certificates on the bundled instances                        *)
(* ------------------------------------------------------------------ *)

let bundled_instances () =
  (* cwd is _build/default/test under `dune runtest` *)
  let dir = if Sys.file_exists "instances" then "instances" else "../instances" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_qp_agrees_with_cost_model () =
  (* The QP MIP's objective-(6) claim must match the independent
     Cost_model evaluation on every bundled instance (C201/C202 clean). *)
  let files = bundled_instances () in
  Alcotest.(check bool) "found bundled instances" true (files <> []);
  List.iter
    (fun file ->
       let inst = Codec.load_instance file in
       let options =
         { Qp_solver.default_options with
           Qp_solver.certify = true; time_limit = 10. }
       in
       let r = Qp_solver.solve ~options inst in
       match r.Qp_solver.certificate with
       | None -> Alcotest.failf "%s: no certificate returned" file
       | Some ds -> check_clean file ds)
    files

(* A NaN cost or objective claim, or a NaN network penalty that makes
   the re-derivation itself NaN, must be rejected: no tolerance
   comparison against NaN can pass. *)
let test_non_finite_claims_rejected () =
  let inst = Lazy.force Tpcc.instance in
  let part = Partitioning.single_site inst in
  let stats = Stats.compute inst ~p:8. in
  let claims ?(p = 8.) ?(cost = Cost_model.cost stats part)
      ?(objective6 = Cost_model.objective stats ~lambda:0.5 part) () =
    fst
      (Solution_certify.certify_claims ~tol:1e-6 ~exact:false inst stats ~p
         ~lambda:0.5 part ~cost ~objective6)
  in
  check_clean "true claims" (claims ());
  Alcotest.(check bool) "NaN cost claim rejected (C202)" true
    (has_code "C202" (claims ~cost:nan ()));
  Alcotest.(check bool) "NaN penalty rejected (C202)" true
    (has_code "C202" (claims ~p:nan ~cost:nan ()));
  Alcotest.(check bool) "NaN objective (6) claim rejected (C201)" true
    (has_code "C201" (claims ~objective6:nan ()))

(* Every solver path certifies its answer through
   [Solution_certify.certify_claims], with its own cost code and
   tolerance: QP and iterative C202 at 1e-5, SA C203 at 1e-6, the greedy
   and affinity baselines C202 at 1e-6.  On each solver's own answer a
   cost claim 1 % off and an objective-(6) claim 1 % off are rejected
   with exactly one float code each, and exactly refuted as E103 and
   E101. *)
let test_corrupted_claims_per_solver () =
  let inst = Lazy.force Tpcc.instance in
  let p = 8. and lambda = 0.9 and num_sites = 2 in
  let stats = Stats.compute inst ~p in
  let qp = { Qp_solver.default_options with Qp_solver.num_sites; p; lambda } in
  let answers =
    [ ( "qp", "C202", 1e-5,
        let r = Qp_solver.solve ~options:qp inst in
        ( Option.get r.Qp_solver.partitioning,
          Option.get r.Qp_solver.cost,
          Option.get r.Qp_solver.objective6 ) );
      ( "sa", "C203", 1e-6,
        let r =
          Sa_solver.solve
            ~options:
              { Sa_solver.default_options with Sa_solver.num_sites; p; lambda }
            inst
        in
        (r.Sa_solver.partitioning, r.Sa_solver.cost, r.Sa_solver.objective6) );
      ( "iter", "C202", 1e-5,
        let r =
          Iterative_solver.solve
            ~options:{ Iterative_solver.default_options with Iterative_solver.qp }
            inst
        in
        ( Option.get r.Iterative_solver.partitioning,
          Option.get r.Iterative_solver.cost,
          Option.get r.Iterative_solver.objective6 ) );
      ( "greedy", "C202", 1e-6,
        let r =
          Greedy.solve
            ~options:{ Greedy.default_options with Greedy.num_sites; p; lambda }
            inst
        in
        (r.Greedy.partitioning, r.Greedy.cost, r.Greedy.objective6) );
      ( "affinity", "C202", 1e-6,
        let r =
          Affinity.solve ~options:{ Affinity.num_sites; p; lambda } inst
        in
        (r.Affinity.partitioning, r.Affinity.cost, r.Affinity.objective6) );
    ]
  in
  List.iter
    (fun (name, cost_code, tol, (part, cost, objective6)) ->
       let certify ~cost ~objective6 =
         let ds, report =
           Solution_certify.certify_claims ~cost_code ~tol ~exact:true inst
             stats ~p ~lambda part ~cost ~objective6
         in
         let report = Option.get report in
         ( D.codes (D.errors ds),
           D.codes (D.errors report.C.Exact.findings),
           List.map
             (fun c -> (c.C.Exact.claim, c.C.Exact.verdict))
             report.C.Exact.checks )
       in
       let codes = Alcotest.(list string) in
       let float_t, exact_t, checks = certify ~cost ~objective6 in
       Alcotest.check codes (name ^ ": true claims, float") [] float_t;
       Alcotest.check codes (name ^ ": true claims, exact") [] exact_t;
       Alcotest.(check (list string))
         (name ^ ": objective (6) checked first, then cost")
         [ "objective (6)"; "cost (objective 4)" ]
         (List.map fst checks);
       let float_c, exact_c, checks = certify ~cost:(cost *. 1.01) ~objective6 in
       Alcotest.check codes (name ^ ": cost off, float") [ cost_code ] float_c;
       Alcotest.check codes (name ^ ": cost off, exact") [ "E103" ] exact_c;
       Alcotest.(check bool) (name ^ ": cost exactly refuted") true
         (List.assoc "cost (objective 4)" checks = C.Exact.Exactly_refuted);
       let float_o, exact_o, checks =
         certify ~cost ~objective6:(objective6 *. 1.01)
       in
       Alcotest.check codes (name ^ ": objective (6) off, float") [ "C201" ]
         float_o;
       Alcotest.check codes (name ^ ": objective (6) off, exact") [ "E101" ]
         exact_o;
       Alcotest.(check bool) (name ^ ": objective (6) exactly refuted") true
         (List.assoc "objective (6)" checks = C.Exact.Exactly_refuted))
    answers

(* ------------------------------------------------------------------ *)
(* Site-symmetry pinning (C112)                                        *)
(* ------------------------------------------------------------------ *)

let tpcc_reduced () = (Grouping.compute (Lazy.force Tpcc.instance)).Grouping.reduced

let test_site_pinning_certifies () =
  (* 4 sites: three adjacent transpositions, with the latency indicators
     as site-free columns. *)
  let inst = tpcc_reduced () in
  let options =
    { Qp_solver.default_options with
      Qp_solver.num_sites = 4; latency = Some 1. }
  in
  check_clean "pinned TPC-C layout model"
    (Qp_solver.certify_site_pinning ~instance:inst (Stats.compute inst ~p:8.)
       options)

let test_pinned_txn_breaks_site_pinning () =
  (* A pre-assigned transaction names a concrete site: the model is built
     without pins, and its sites are no longer interchangeable. *)
  let options =
    { Qp_solver.default_options with
      Qp_solver.num_sites = 3; fixed_txns = [ (0, 1) ] }
  in
  let ds =
    Qp_solver.certify_site_pinning (Stats.compute (tpcc_reduced ()) ~p:8.) options
  in
  Alcotest.(check bool) "C112 error" true
    (List.exists (fun d -> D.is_error d && d.D.code = "C112") ds)

(* ------------------------------------------------------------------ *)
(* Regression: numerical prunes void an optimality claim               *)
(* ------------------------------------------------------------------ *)

(* Scale every transaction's query frequencies by one factor drawn from
   U(0.5, 1.5). *)
let scale_frequencies rng (inst : Instance.t) =
  let w = inst.Instance.workload in
  let factor =
    Array.init (Workload.num_transactions w) (fun _ -> 0.5 +. Rng.float rng)
  in
  let queries =
    List.init (Workload.num_queries w) (fun q ->
        let query = Workload.query w q in
        {
          query with
          Workload.freq =
            query.Workload.freq *. factor.(Workload.txn_of_query w q);
        })
  in
  let transactions =
    List.init (Workload.num_transactions w) (Workload.transaction w)
  in
  Instance.make ~name:inst.Instance.name inst.Instance.schema
    (Workload.make ~queries ~transactions)

(* TPC-C with frequencies scaled from this seed, at 3 sites, as the QP
   solver builds it for the certify pass.  Before branch-and-bound
   searched an equilibrated model, this instance's unpinned search
   abandoned a subtree on simplex numerical trouble. *)
let prune_fixture () =
  let inst =
    scale_frequencies (Rng.create 42449740) (Lazy.force Tpcc.instance)
  in
  let options =
    { Qp_solver.default_options with
      Qp_solver.num_sites = 3;
      p = 8.;
      lambda = 0.9;
      gap = 1e-3;
      time_limit = 60.;
      certify = true;
      certify_exact = true;
    }
  in
  (inst, options)

(* Two rows whose binaries carry coefficients from 6e-6 to 1.4e6.  Binary
   columns keep scaling factor 1, so equilibration cannot even them out.
   Branch-and-bound reaches an integral leaf whose rounded point breaks
   the equality row by more than the vet tolerance, and abandons it as a
   numerical prune.  The search then proves no incumbent: the claim must
   degrade to one that both certifiers accept, not an optimality claim
   the exact audit refutes.  Taken from a generated model. *)
let numerical_prune_model () =
  let m = Lp.create () in
  let b = Array.init 3 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m
    [ (-0x1.a89ac1ad6d029p-18, b.(0)); (-0x1.0977b001462eep-11, b.(1));
      (0x1.564dbd0c21cfap+20, b.(2)) ]
    Lp.Eq 0x1.564dbd0a083ddp+20;
  Lp.add_constr m
    [ (-0x1.7f9e9b2efdcp-14, b.(0)); (0x1.4822cca0fd075p-14, b.(1)) ]
    Lp.Le (-0x1.711ed88780b3p-18);
  Lp.set_objective m Lp.Minimize [ (0x1.10444b76bfadep+13, b.(1)) ];
  m

let test_numerical_prune_voids_optimality () =
  let model = numerical_prune_model () in
  let gap = exact_limits.Mip.gap in
  let outcome, mip_stats = Mip.solve ~limits:exact_limits model in
  Alcotest.(check bool) "fixture still prunes numerically" true
    (mip_stats.Mip.audit.Mip.numerical_prunes >= 1);
  Alcotest.(check bool) "outcome is not an optimality claim" true
    (match outcome with Mip.Optimal _ -> false | _ -> true);
  check_clean "float certificate" (C.certify_mip ~gap model outcome mip_stats);
  let _, _, refuted, _ =
    C.Exact.counts (C.Exact.audit ~gap model outcome mip_stats)
  in
  Alcotest.(check int) "exactly refuted claims" 0 refuted

(* Through the default (pinned) solver the instance proves its optimum,
   and every certificate agrees. *)
let test_pinned_prune_fixture_optimal () =
  let inst, options = prune_fixture () in
  let r = Qp_solver.solve ~options inst in
  Alcotest.(check string) "outcome" "proved_optimal"
    (match r.Qp_solver.outcome with
     | Qp_solver.Proved_optimal -> "proved_optimal"
     | Qp_solver.Limit_feasible -> "limit_feasible"
     | Qp_solver.Limit_no_solution -> "limit_no_solution"
     | Qp_solver.Too_large -> "too_large");
  (match r.Qp_solver.certificate with
   | None -> Alcotest.fail "no certificate returned"
   | Some ds -> check_clean "float certificate" ds);
  match r.Qp_solver.exact with
  | None -> Alcotest.fail "no exact report returned"
  | Some rep ->
    let _, _, refuted, _ = C.Exact.counts rep in
    Alcotest.(check int) "exactly refuted claims" 0 refuted

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "certify"
    [ ( "clean",
        [ Alcotest.test_case "optimal certifies" `Quick test_optimal_certifies;
          Alcotest.test_case "node-limited solve certifies" `Quick
            test_node_limited_certifies;
          Alcotest.test_case "site pinning certifies (C112)" `Quick
            test_site_pinning_certifies;
        ] );
      ( "corrupted",
        [ Alcotest.test_case "flipped binary rejected (C004)" `Quick
            test_flipped_binary_rejected;
          Alcotest.test_case "corrupted objective rejected (C005)" `Quick
            test_corrupted_objective_rejected;
          Alcotest.test_case "malformed vector rejected (C001)" `Quick
            test_malformed_vector_rejected;
          Alcotest.test_case "fractional binary rejected (C003)" `Quick
            test_fractional_rejected;
          Alcotest.test_case "non-finite claims rejected (C202/C201)" `Quick
            test_non_finite_claims_rejected;
          Alcotest.test_case "corrupted claims per solver (C20x/E10x)" `Quick
            test_corrupted_claims_per_solver;
          Alcotest.test_case "pinned txn breaks site pinning (C112)" `Quick
            test_pinned_txn_breaks_site_pinning;
        ] );
      ( "dual",
        [ Alcotest.test_case "lagrangian bound exact" `Quick
            test_lagrangian_bound_exact;
          Alcotest.test_case "clamp out-of-cone duals (C101)" `Quick
            test_clamp_out_of_cone;
          Alcotest.test_case "infeasible Farkas certifies (C107 clean)" `Quick
            test_infeasible_farkas_certifies;
          Alcotest.test_case "farkas rejects feasible model" `Quick
            test_farkas_rejects_feasible;
        ] );
      ( "bundled-instances",
        [ Alcotest.test_case "qp agrees with cost model" `Slow
            test_qp_agrees_with_cost_model ] );
      ( "regressions",
        [ Alcotest.test_case "numerical prunes void optimality" `Quick
            test_numerical_prune_voids_optimality;
          Alcotest.test_case "pinned prune fixture is optimal" `Quick
            test_pinned_prune_fixture_optimal;
        ] );
      ( "properties",
        [ q prop_optimal_certifies;
          q prop_weak_duality;
          q prop_mutated_incumbent_rejected;
        ] );
    ]
