(* Tests for the exact rational certificate auditor
   (Vpart_certify.Certify.Exact): tolerance-free re-verification of the
   float certificates, including adversarial fixtures where the violation
   straddles the float tolerance and only the exact auditor sees it. *)

open Vpart
module C = Vpart_certify.Certify
module E = Vpart_certify.Certify.Exact
module D = Vpart_analysis.Diagnostic
module Q = Vpart_rational.Rational

let exact_limits =
  { Mip.default_limits with Mip.gap = 1e-9; time_limit = Some 30. }

let has_code code ds = List.mem code (D.codes ds)

let counts_refuted r =
  let _, _, refuted, _ = E.counts r in
  refuted

(* ------------------------------------------------------------------ *)
(* Adversarial fixtures straddling the float tolerance                 *)
(* ------------------------------------------------------------------ *)

let test_masked_violation_flagged () =
  (* A violation of 5e-6 sits below the 1e-5 float tolerance: float
     certification passes, the exact auditor reports it as E002. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:0. ~ub:1. () in
  Lp.add_constr m [ (1., x) ] Lp.Le 0.5;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let std = Lp.standardize m in
  let pt = [| 0.5 +. 5e-6 |] in
  Alcotest.(check bool) "float certification passes" true
    (C.certify_point std pt = []);
  let r = E.certify_point std pt in
  Alcotest.(check bool) "exact auditor flags E002" true
    (has_code "E002" r.E.findings);
  Alcotest.(check bool) "no errors (masked, not refuted)" false
    (D.has_errors r.E.findings);
  match r.E.checks with
  | [ c ] ->
    Alcotest.(check bool) "verdict masked" true
      (c.E.verdict = E.Masked_violation);
    Alcotest.(check bool) "float verdict recorded as pass" true c.E.float_ok;
    Alcotest.(check bool) "residual is exactly 5e-6's dyadic" true
      (Q.equal c.E.residual (Q.sub (Q.of_float (0.5 +. 5e-6)) (Q.make 1 2)))
  | _ -> Alcotest.fail "expected a single primal check"

let test_catastrophic_cancellation_refuted () =
  (* x + y <= 1e16 violated by exactly 1 at (1e16, 1): in doubles the
     activity 1e16 +. 1. rounds back to 1e16, so float certification
     passes; the exact auditor refutes the feasibility claim (E001). *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:0. ~ub:2e16 () in
  let y = Lp.add_var m ~lb:0. ~ub:2. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 1e16;
  Lp.set_objective m Lp.Minimize [ (1., x); (1., y) ];
  let std = Lp.standardize m in
  let pt = [| 1e16; 1. |] in
  Alcotest.(check bool) "float certification passes" true
    (C.certify_point std pt = []);
  let r = E.certify_point std pt in
  Alcotest.(check bool) "exact auditor refutes with E001" true
    (has_code "E001" r.E.findings && D.has_errors r.E.findings);
  match r.E.checks with
  | [ c ] ->
    Alcotest.(check bool) "verdict exactly refuted" true
      (c.E.verdict = E.Exactly_refuted);
    Alcotest.(check bool) "float verdict recorded as pass" true c.E.float_ok;
    Alcotest.(check bool) "exact residual is exactly 1" true
      (Q.equal c.E.residual Q.one)
  | _ -> Alcotest.fail "expected a single primal check"

let test_genuine_violation_refuted_and_float_fails () =
  (* Above the tolerance both layers fail; the E001 message must not
     claim the float layer passed. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:0. ~ub:1. () in
  Lp.add_constr m [ (1., x) ] Lp.Le 0.5;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let std = Lp.standardize m in
  let pt = [| 0.6 |] in
  Alcotest.(check bool) "float certification fails too" false
    (C.certify_point std pt = []);
  let r = E.certify_point std pt in
  Alcotest.(check bool) "exact auditor refutes" true
    (D.has_errors r.E.findings);
  match r.E.checks with
  | [ c ] -> Alcotest.(check bool) "float fail recorded" false c.E.float_ok
  | _ -> Alcotest.fail "expected a single primal check"

(* ------------------------------------------------------------------ *)
(* Whole-solve audits                                                  *)
(* ------------------------------------------------------------------ *)

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

let test_optimal_audits_clean () =
  let m = assignment_model () in
  let out, stats = Mip.solve ~limits:exact_limits m in
  let r = E.audit m out stats in
  Alcotest.(check int) "no exactly-refuted claims" 0 (counts_refuted r);
  Alcotest.(check bool) "no error findings" false (D.has_errors r.E.findings)

let test_corrupted_objective_refuted () =
  let m = assignment_model () in
  let out, stats = Mip.solve ~limits:exact_limits m in
  match out with
  | Mip.Optimal sol ->
    let lied = Mip.Optimal { sol with Mip.obj = sol.Mip.obj +. 1. } in
    let r = E.audit m lied stats in
    Alcotest.(check bool) "objective lie caught as E003" true
      (has_code "E003" r.E.findings && D.has_errors r.E.findings)
  | _ -> Alcotest.fail "expected optimal"

let test_infeasible_farkas_audits () =
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:0. ~ub:1. () in
  let y = Lp.add_var m ~lb:0. ~ub:1. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 3.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let out, stats = Mip.solve ~limits:exact_limits m in
  (match out with
   | Mip.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible");
  let r = E.audit m out stats in
  Alcotest.(check int) "Farkas certificate exactly valid" 0
    (counts_refuted r);
  Alcotest.(check bool) "no error findings" false (D.has_errors r.E.findings)

let test_zero_ray_refuted () =
  (* An all-zero "Farkas ray" proves nothing: exactly refuted (E010). *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:0. ~ub:1. () in
  Lp.add_constr m [ (1., x) ] Lp.Ge 3.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let out, stats = Mip.solve ~limits:exact_limits m in
  (match out with
   | Mip.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible");
  let audit = stats.Mip.audit in
  let zeroed =
    { stats with
      Mip.audit =
        { audit with
          Mip.farkas =
            Option.map (Array.map (fun _ -> 0.)) audit.Mip.farkas;
        };
    }
  in
  let r = E.audit m out zeroed in
  Alcotest.(check bool) "zero ray refuted with E010" true
    (has_code "E010" r.E.findings && D.has_errors r.E.findings)

(* ------------------------------------------------------------------ *)
(* Exact certification accepts float-certified bundled solves          *)
(* ------------------------------------------------------------------ *)

let bundled_instances () =
  (* cwd is _build/default/test under `dune runtest` *)
  let dir =
    if Sys.file_exists "instances" then "instances" else "../instances"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_exact_accepts_bundled_solves () =
  List.iter
    (fun file ->
       let inst = Codec.load_instance file in
       let r =
         Qp_solver.solve
           ~options:
             { Qp_solver.default_options with
               Qp_solver.time_limit = 10.;
               certify = true;
               certify_exact = true;
             }
           inst
       in
       let cert = Option.value r.Qp_solver.certificate ~default:[] in
       Alcotest.(check bool)
         (file ^ ": float certification clean")
         false (D.has_errors cert);
       match r.Qp_solver.exact with
       | None -> Alcotest.fail (file ^ ": exact report missing")
       | Some ex ->
         Alcotest.(check int)
           (file ^ ": zero exactly-refuted claims")
           0 (counts_refuted ex);
         Alcotest.(check bool)
           (file ^ ": no exact error findings")
           false
           (D.has_errors ex.E.findings))
    (bundled_instances ())

(* ------------------------------------------------------------------ *)
(* Domain claims: one exact breakdown, both claims                     *)
(* ------------------------------------------------------------------ *)

(* On full-mantissa frequencies (tpcc-scaled.json) with the latency term
   on: the true cost and objective-(6) claims are exactly valid or
   tolerance-masked, and claims 1 % off are exactly refuted as E101/E103.
   The objective-(6) check comes first in the report. *)
let test_domain_audit_refutes_off_claims () =
  let file =
    List.find
      (fun f -> Filename.basename f = "tpcc-scaled.json")
      (bundled_instances ())
  in
  let inst = Codec.load_instance file in
  let lambda = 0.9 and pl = 50. in
  let sa =
    Sa_solver.solve
      ~options:{ Sa_solver.default_options with
                 Sa_solver.num_sites = 3; lambda; latency = Some pl }
      inst
  in
  let part = sa.Sa_solver.partitioning in
  let cost = sa.Sa_solver.cost and obj6 = sa.Sa_solver.objective6 in
  let audit ~cost ~obj6 =
    Solution_certify.Exact.audit
      ~objective6:
        { Solution_certify.Exact.lambda; latency = Some pl; claimed = obj6 }
      inst ~p:8. part ~cost
  in
  let verdicts r = List.map (fun c -> (c.E.code, c.E.verdict)) r.E.checks in
  let truth = audit ~cost ~obj6 in
  List.iter
    (fun (code, v) ->
       Alcotest.(check bool)
         (code ^ ": true claim valid or masked") true
         (v = E.Exactly_valid || v = E.Masked_violation))
    (verdicts truth);
  Alcotest.(check (list string)) "true claims: objective (6), then cost"
    [ "objective (6)"; "cost (objective 4)" ]
    (List.map (fun c -> c.E.claim) truth.E.checks);
  Alcotest.(check bool) "true claims: no error findings" false
    (D.has_errors truth.E.findings);
  let off = audit ~cost:(cost *. 1.01) ~obj6:(obj6 *. 1.01) in
  Alcotest.(check bool) "both off claims exactly refuted" true
    (verdicts off
     = [ ("E101", E.Exactly_refuted); ("E103", E.Exactly_refuted) ]);
  Alcotest.(check bool) "E101 and E103 errors reported" true
    (has_code "E101" (D.errors off.E.findings)
     && has_code "E103" (D.errors off.E.findings));
  let cost_only = Solution_certify.Exact.audit inst ~p:8. part ~cost in
  Alcotest.(check int) "cost only: one check" 1
    (List.length cost_only.E.checks)

(* The primal audit runs on every exactly certified solve.  On a feasible
   point it pays for the rational row activities (measured: 137 minor
   words per row or column) but writes no label; a label per bound and
   row adds about 100 more. *)
let test_point_allocation_budget () =
  let inst = Instance_gen.generate ~seed:1 (Instance_gen.find "rndBt4x100") in
  let stats = Stats.compute (Grouping.compute inst).Grouping.reduced ~p:8. in
  let options = { Qp_solver.default_options with Qp_solver.num_sites = 2 } in
  let model, _ = Qp_solver.build_model stats options in
  let std = Lp.standardize model in
  (* Everything on site 0: x, y and the product indicators u of site 0 are
     1, the load bound sits at its upper bound, the rest at 0. *)
  let pt =
    Array.init std.Lp.ncols (fun j ->
        match String.split_on_char '_' (Lp.var_name model j) with
        | ("x" | "y" | "u") :: rest ->
          if List.nth rest (List.length rest - 1) = "0" then 1. else 0.
        | _ -> if Lp.var_name model j = "maxload" then std.Lp.ub.(j) else 0.)
  in
  Alcotest.(check int) "the point is feasible" 0
    (List.length (Lp.feasibility_violations std pt));
  ignore (E.certify_point std pt);
  let before = Gc.minor_words () in
  let r = E.certify_point std pt in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list string)) "no findings" [] (D.codes r.E.findings);
  let per_row = words /. float_of_int (std.Lp.nrows + std.Lp.ncols) in
  if per_row > 160. then
    Alcotest.failf
      "certify_point allocated %.1f minor words per row or column (budget 160)"
      per_row

let () =
  Alcotest.run "exact"
    [
      ( "adversarial",
        [ Alcotest.test_case "masked violation flagged (E002)" `Quick
            test_masked_violation_flagged;
          Alcotest.test_case "catastrophic cancellation refuted (E001)"
            `Quick test_catastrophic_cancellation_refuted;
          Alcotest.test_case "genuine violation refuted, float fails too"
            `Quick test_genuine_violation_refuted_and_float_fails;
        ] );
      ( "audit",
        [ Alcotest.test_case "optimal solve audits clean" `Quick
            test_optimal_audits_clean;
          Alcotest.test_case "corrupted objective refuted (E003)" `Quick
            test_corrupted_objective_refuted;
          Alcotest.test_case "infeasible Farkas audits clean" `Quick
            test_infeasible_farkas_audits;
          Alcotest.test_case "zero ray refuted (E010)" `Quick
            test_zero_ray_refuted;
        ] );
      ( "domain",
        [ Alcotest.test_case "off claims refuted, true claims hold" `Quick
            test_domain_audit_refutes_off_claims ] );
      ( "allocation",
        [ Alcotest.test_case "feasible point writes no labels" `Quick
            test_point_allocation_budget ] );
      ( "bundled-instances",
        [ Alcotest.test_case "exact accepts float-certified solves" `Slow
            test_exact_accepts_bundled_solves ] );
    ]
