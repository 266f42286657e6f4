(* Tests for the numerical/structural analysis layer and its remediations:
   Vpart_analysis.Numerics_lint (N-codes), Vpart_analysis.Structure
   (S-codes), Diagnostic.dedup, Scaling and the Qp_solver site-symmetry
   pinning. *)

open Vpart
module D = Vpart_analysis.Diagnostic
module Numerics_lint = Vpart_analysis.Numerics_lint
module Structure = Vpart_analysis.Structure

let codes ds = D.codes ds

let has code ds = List.mem code (codes ds)

let check_has msg code ds =
  Alcotest.(check bool) msg true (has code ds)

let check_not msg code ds =
  Alcotest.(check bool) msg false (has code ds)

(* Same hand-built standard-form helper as test_analysis.ml: the public
   model API rejects most numerical defects, so fixtures assemble the
   frozen record directly. *)
let mk_std ?(obj = fun _ -> 1.) ?(lb = fun _ -> 0.) ?(ub = fun _ -> 1.)
    ?(integer = fun _ -> false) ncols rows =
  {
    Lp.std_name = "fixture";
    ncols;
    nrows = List.length rows;
    obj = Array.init ncols obj;
    obj_const = 0.;
    lb = Array.init ncols lb;
    ub = Array.init ncols ub;
    integer = Array.init ncols integer;
    row_idx = Array.of_list (List.map (fun (i, _, _, _) -> Array.of_list i) rows);
    row_val = Array.of_list (List.map (fun (_, v, _, _) -> Array.of_list v) rows);
    row_cmp = Array.of_list (List.map (fun (_, _, c, _) -> c) rows);
    rhs = Array.of_list (List.map (fun (_, _, _, r) -> r) rows);
    maximize = false;
  }

(* A numerically innocuous model: unit coefficients, nonzero rhs. *)
let benign () =
  mk_std 2 [ ([ 0; 1 ], [ 1.; 1. ], Lp.Le, 1.); ([ 0 ], [ 1. ], Lp.Ge, 1.) ]

(* ------------------------------------------------------------------ *)
(* N-codes: one fixture per code                                       *)
(* ------------------------------------------------------------------ *)

let test_n001_ill_scaled_row () =
  let std = mk_std 2 [ ([ 0; 1 ], [ 1e-4; 1e4 ], Lp.Le, 1.) ] in
  let ds = Numerics_lint.lint std in
  check_has "in-row ratio 1e8" "N001" ds;
  check_not "benign model" "N001" (Numerics_lint.lint (benign ()))

let test_n002_ill_scaled_column () =
  let std =
    mk_std 1 [ ([ 0 ], [ 1e-4 ], Lp.Le, 1.); ([ 0 ], [ 1e4 ], Lp.Le, 1.) ]
  in
  check_has "in-column ratio 1e8" "N002" (Numerics_lint.lint std);
  check_not "benign model" "N002" (Numerics_lint.lint (benign ()))

let test_n003_big_m () =
  let std =
    mk_std 3
      [ ([ 0; 1 ], [ 1.; 1. ], Lp.Le, 1.);
        ([ 1; 2 ], [ 1.; 1. ], Lp.Le, 1.);
        ([ 2 ], [ 1e7 ], Lp.Le, 1e7);
      ]
  in
  check_has "1e7 against unit median" "N003" (Numerics_lint.lint std);
  check_not "benign model" "N003" (Numerics_lint.lint (benign ()))

let test_n004_near_parallel_rows () =
  let std =
    mk_std 2
      [ ([ 0; 1 ], [ 1.; 1. ], Lp.Le, 1.);
        ([ 0; 1 ], [ 1.; 1. +. 1e-7 ], Lp.Le, 1.);
      ]
  in
  check_has "deviation 1e-7" "N004" (Numerics_lint.lint std);
  (* exactly proportional rows are Model_lint's M004, not N004 *)
  let exact =
    mk_std 2
      [ ([ 0; 1 ], [ 1.; 1. ], Lp.Le, 1.); ([ 0; 1 ], [ 2.; 2. ], Lp.Le, 2.) ]
  in
  check_not "exactly proportional" "N004" (Numerics_lint.lint exact)

let test_n005_duplicate_columns () =
  let std =
    mk_std 2
      [ ([ 0; 1 ], [ 1.; 2. ], Lp.Le, 1.); ([ 0; 1 ], [ 3.; 6. ], Lp.Ge, 0.) ]
      ~obj:(fun j -> if j = 0 then 1. else 2.)
  in
  (* column 1 = 2 * column 0, objective proportional likewise *)
  check_has "proportional columns" "N005" (Numerics_lint.lint std);
  let different =
    mk_std 2
      [ ([ 0; 1 ], [ 1.; 2. ], Lp.Le, 1.); ([ 0; 1 ], [ 3.; 5. ], Lp.Ge, 0.) ]
  in
  check_not "non-proportional columns" "N005" (Numerics_lint.lint different)

let test_n006_degeneracy () =
  let zero_heavy =
    mk_std 1
      [ ([ 0 ], [ 1. ], Lp.Le, 0.);
        ([ 0 ], [ 1. ], Lp.Ge, 0.);
        ([ 0 ], [ 1. ], Lp.Le, 1.);
      ]
  in
  let ds = Numerics_lint.lint zero_heavy in
  check_has "2/3 zero rhs" "N006" ds;
  Alcotest.(check bool) "warning severity" true
    (List.exists
       (fun d -> d.D.code = "N006" && d.D.severity = D.Warning)
       ds)

let test_n007_condition_estimate () =
  let skewed =
    mk_std 2 [ ([ 0 ], [ 1. ], Lp.Le, 1.); ([ 1 ], [ 1e9 ], Lp.Le, 1e9) ]
  in
  let ds = Numerics_lint.lint skewed in
  Alcotest.(check bool) "norm ratio 1e9 -> warning" true
    (List.exists
       (fun d -> d.D.code = "N007" && d.D.severity = D.Warning)
       ds);
  (* always reported as an info on benign models *)
  Alcotest.(check bool) "benign -> info" true
    (List.exists
       (fun d -> d.D.code = "N007" && d.D.severity = D.Info)
       (Numerics_lint.lint (benign ())))

let test_n008_objective_range () =
  let std =
    mk_std 2
      [ ([ 0; 1 ], [ 1.; 1. ], Lp.Le, 1.) ]
      ~obj:(fun j -> if j = 0 then 1e-6 else 1e6)
  in
  check_has "objective ratio 1e12" "N008" (Numerics_lint.lint std);
  check_not "benign model" "N008" (Numerics_lint.lint (benign ()))

let test_runtime_feedback () =
  let quiet =
    Numerics_lint.runtime_feedback ~iterations:10 ~refactorizations:2
      ~drift_rebuilds:0 ~recovery_rebuilds:0 ~max_updates:5
  in
  check_has "solve summary" "N101" quiet;
  check_not "no trouble, no N102" "N102" quiet;
  let troubled =
    Numerics_lint.runtime_feedback ~iterations:10 ~refactorizations:3
      ~drift_rebuilds:1 ~recovery_rebuilds:2 ~max_updates:5
  in
  check_has "drift/recovery rebuilds" "N102" troubled

(* ------------------------------------------------------------------ *)
(* S-codes                                                             *)
(* ------------------------------------------------------------------ *)

let test_s001_density () =
  let ds = Structure.lint (benign ()) in
  Alcotest.(check bool) "small matrix -> info" true
    (List.exists (fun d -> d.D.code = "S001" && d.D.severity = D.Info) ds);
  (* 100 x 100 fully dense: density 1 over 10000 cells -> warning *)
  let dense =
    mk_std 100
      (List.init 100 (fun _ ->
           (List.init 100 Fun.id, List.init 100 (fun _ -> 1.), Lp.Le, 1.)))
  in
  Alcotest.(check bool) "dense matrix -> warning" true
    (List.exists
       (fun d -> d.D.code = "S001" && d.D.severity = D.Warning)
       (Structure.lint dense))

let test_s002_bandwidth () =
  check_has "bandwidth info" "S002" (Structure.lint (benign ()))

let test_s003_blocks () =
  let split =
    mk_std 2 [ ([ 0 ], [ 1. ], Lp.Le, 1.); ([ 1 ], [ 1. ], Lp.Le, 1.) ]
  in
  let pr = Structure.profile split in
  Alcotest.(check int) "two independent blocks" 2 (List.length pr.Structure.p_blocks);
  check_has "S003 fires" "S003" (Structure.lint_profile pr);
  let joined = benign () in
  Alcotest.(check int) "connected matrix: one block" 1
    (List.length (Structure.profile joined).Structure.p_blocks)

let test_s004_fill_in () =
  let pr = Structure.profile (benign ()) in
  Alcotest.(check bool) "fill-in computed on small matrix" true
    (pr.Structure.p_fill_in <> None);
  Alcotest.(check bool) "not capped" false pr.Structure.p_fill_capped;
  check_has "S004 fires" "S004" (Structure.lint_profile pr)

let test_s005_symmetry_orbits () =
  (* two interchangeable integer columns: same bounds/objective, and the
     single row is invariant under swapping them *)
  let sym =
    mk_std 2 [ ([ 0; 1 ], [ 1.; 1. ], Lp.Eq, 1.) ] ~integer:(fun _ -> true)
  in
  let pr = Structure.profile sym in
  Alcotest.(check (list int)) "one orbit of 2" [ 2 ] pr.Structure.p_orbits;
  check_has "S005 fires" "S005" (Structure.lint_profile pr);
  (* distinct objective coefficients split the orbit *)
  let asym =
    mk_std 2
      [ ([ 0; 1 ], [ 1.; 1. ], Lp.Eq, 1.) ]
      ~integer:(fun _ -> true)
      ~obj:(fun j -> float_of_int (j + 1))
  in
  Alcotest.(check (list int)) "no orbit" []
    (Structure.profile asym).Structure.p_orbits

let smallbank_profile opts =
  let inst = Lazy.force Smallbank.instance in
  let grouping = Grouping.compute inst in
  let stats = Stats.compute grouping.Grouping.reduced ~p:8. in
  let model, _ = Qp_solver.build_model stats opts in
  Structure.profile (Lp.standardize model)

let test_pinned_layout_model_no_orbits () =
  (* the default 3-site layout MIP pins site symmetry away *)
  let pr =
    smallbank_profile { Qp_solver.default_options with Qp_solver.num_sites = 3 }
  in
  Alcotest.(check (list int)) "no orbits" [] pr.Structure.p_orbits

let test_layout_model_shows_symmetry () =
  (* a pre-assigned transaction turns the pinning off; sites 1 and 2 stay
     interchangeable, and S005 sees them on the real layout MIP *)
  let pr =
    smallbank_profile
      { Qp_solver.default_options with
        Qp_solver.num_sites = 3; fixed_txns = [ (0, 0) ] }
  in
  Alcotest.(check bool) "site orbits detected" true
    (pr.Structure.p_orbits <> []
     && List.for_all (fun k -> k = 2) pr.Structure.p_orbits);
  check_has "S005 fires" "S005" (Structure.lint_profile pr)

(* ------------------------------------------------------------------ *)
(* Diagnostic.dedup                                                    *)
(* ------------------------------------------------------------------ *)

let test_dedup_ordering () =
  let e = D.error ~code:"X001" "boom" in
  let w = D.warning ~code:"X002" "dup" in
  let i = D.info ~code:"X003" "note" in
  (match D.dedup (D.sort [ w; i; w; e; w ]) with
   | [ (a, na); (b, nb); (c, nc) ] ->
     Alcotest.(check string) "error first" "X001" a.D.code;
     Alcotest.(check int) "error once" 1 na;
     Alcotest.(check string) "warning second" "X002" b.D.code;
     Alcotest.(check int) "warning thrice" 3 nb;
     Alcotest.(check string) "info last" "X003" c.D.code;
     Alcotest.(check int) "info once" 1 nc
   | ds -> Alcotest.failf "expected 3 distinct findings, got %d" (List.length ds));
  (* distinct messages under one code stay separate *)
  let w2 = D.warning ~code:"X002" "other location" in
  Alcotest.(check int) "messages distinguish" 2
    (List.length (D.dedup [ w; w2 ]));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let report = Format.asprintf "%a" D.pp_report [ w; w; w ] in
  Alcotest.(check bool) "report collapses with (x3)" true
    (contains report "(x3)")

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)
(* ------------------------------------------------------------------ *)

let is_pow2 f = f > 0. && Float.is_integer (Float.log2 f)

let ill_scaled () =
  mk_std 2
    [ ([ 0; 1 ], [ 1e-4; 1e4 ], Lp.Le, 1.); ([ 0 ], [ 256. ], Lp.Ge, 1. ) ]
    ~ub:(fun _ -> 8.)

let test_scaling_factors_pow2 () =
  let sc = Scaling.scaling (ill_scaled ()) in
  Array.iter
    (fun r -> Alcotest.(check bool) "row factor is a power of two" true (is_pow2 r))
    sc.Scaling.row_scale;
  Array.iter
    (fun c -> Alcotest.(check bool) "col factor is a power of two" true (is_pow2 c))
    sc.Scaling.col_scale

let test_scaling_integer_cols_untouched () =
  let std = ill_scaled () in
  let std = { std with Lp.integer = [| true; false |] } in
  let sc = Scaling.scaling std in
  Alcotest.(check (float 0.)) "integer column factor 1" 1.
    sc.Scaling.col_scale.(0)

let test_scaling_roundtrip_exact () =
  let std = ill_scaled () in
  let sc = Scaling.scaling std in
  let x = [| 0.3; 7.25 |] in
  let x' = Scaling.unscale_point sc (Scaling.scale_point sc x) in
  (* power-of-two factors: the round-trip is bit-exact, not just close *)
  Alcotest.(check bool) "bit-exact round-trip" true (x = x')

let test_scaling_objective_invariant () =
  let std = ill_scaled () in
  let sc = Scaling.scaling std in
  let sstd = Scaling.scale sc std in
  let x = [| 0.3; 7.25 |] in
  let sx = Scaling.scale_point sc x in
  let value (std : Lp.std) x =
    let acc = ref std.Lp.obj_const in
    Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) std.Lp.obj;
    !acc
  in
  Alcotest.(check (float 1e-9)) "objective value invariant" (value std x)
    (value sstd sx)

let test_scaling_improves_range () =
  let std = ill_scaled () in
  let sstd = Scaling.scale (Scaling.scaling std) std in
  let range (std : Lp.std) =
    let lo = ref infinity and hi = ref 0. in
    Array.iter
      (Array.iter (fun v ->
           let m = Float.abs v in
           if m > 0. then begin
             if m < !lo then lo := m;
             if m > !hi then hi := m
           end))
      std.Lp.row_val;
    !hi /. !lo
  in
  Alcotest.(check bool) "coefficient range shrinks" true
    (range sstd < range std);
  check_not "N001 gone after scaling" "N001" (Numerics_lint.lint sstd)

let qp_base =
  { Qp_solver.default_options with Qp_solver.num_sites = 2; time_limit = 10. }

(* ------------------------------------------------------------------ *)
(* Property: scaling preserves the LP optimum                          *)
(* ------------------------------------------------------------------ *)

let gen_params seed =
  { Instance_gen.default_params with
    Instance_gen.name = Printf.sprintf "scale%d" seed;
    num_tables = 4;
    num_transactions = 4;
    max_attrs_per_table = 4;
    max_queries_per_txn = 2;
    max_tables_per_query = 2;
    max_attrs_per_query = 4;
  }

let std_for seed =
  let inst = Instance_gen.generate ~seed (gen_params seed) in
  let grouping = Grouping.compute inst in
  let stats = Stats.compute grouping.Grouping.reduced ~p:8. in
  let model, _ = Qp_solver.build_model stats qp_base in
  Lp.standardize model

let prop_scaling_preserves_lp_optimum =
  QCheck.Test.make ~count:25 ~name:"scaling preserves the LP optimum to 1e-6"
    QCheck.small_int (fun seed ->
      let std = std_for seed in
      let sstd = Scaling.scale (Scaling.scaling std) std in
      let a = Simplex.solve std and b = Simplex.solve sstd in
      match (a.Simplex.status, b.Simplex.status) with
      | Simplex.Optimal, Simplex.Optimal ->
        Float.abs (a.Simplex.obj -. b.Simplex.obj)
        <= 1e-6 *. (1. +. Float.abs a.Simplex.obj)
      | sa, sb -> sa = sb)

(* ------------------------------------------------------------------ *)
(* Property: the site pinning keeps the optimum                        *)
(* ------------------------------------------------------------------ *)

let prop_pinned_optimum_matches_unpinned =
  QCheck.Test.make ~count:20
    ~name:"pinned QP optimum = unpinned MIP optimum"
    QCheck.(triple small_int (int_range 2 3) bool)
    (fun (seed, sites, allow_replication) ->
      let inst = Instance_gen.generate ~seed (gen_params seed) in
      let opts = { qp_base with Qp_solver.num_sites = sites; allow_replication } in
      let stats =
        Stats.compute (Grouping.compute inst).Grouping.reduced ~p:opts.Qp_solver.p
      in
      let pinned = Qp_solver.solve ~options:opts inst in
      match
        (pinned.Qp_solver.outcome, pinned.Qp_solver.objective6,
         Unpinned.solve stats opts)
      with
      | Qp_solver.Proved_optimal, Some a, (_, Mip.Optimal sol, _) ->
        (* both incumbents lie within the gap above the one optimum *)
        let b = sol.Mip.obj in
        let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
        Float.abs (a -. b) <= opts.Qp_solver.gap *. scale
      | _ -> QCheck.Test.fail_report "a solve did not prove its optimum")

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "numerics"
    [ ( "numerics-lint",
        [ Alcotest.test_case "N001 ill-scaled row" `Quick test_n001_ill_scaled_row;
          Alcotest.test_case "N002 ill-scaled column" `Quick
            test_n002_ill_scaled_column;
          Alcotest.test_case "N003 big-M" `Quick test_n003_big_m;
          Alcotest.test_case "N004 near-parallel rows" `Quick
            test_n004_near_parallel_rows;
          Alcotest.test_case "N005 duplicate columns" `Quick
            test_n005_duplicate_columns;
          Alcotest.test_case "N006 degeneracy" `Quick test_n006_degeneracy;
          Alcotest.test_case "N007 condition estimate" `Quick
            test_n007_condition_estimate;
          Alcotest.test_case "N008 objective range" `Quick
            test_n008_objective_range;
          Alcotest.test_case "N101/N102 runtime feedback" `Quick
            test_runtime_feedback;
        ] );
      ( "structure",
        [ Alcotest.test_case "S001 density" `Quick test_s001_density;
          Alcotest.test_case "S002 bandwidth" `Quick test_s002_bandwidth;
          Alcotest.test_case "S003 blocks" `Quick test_s003_blocks;
          Alcotest.test_case "S004 fill-in" `Quick test_s004_fill_in;
          Alcotest.test_case "S005 symmetry orbits" `Quick
            test_s005_symmetry_orbits;
          Alcotest.test_case "layout model shows site symmetry" `Quick
            test_layout_model_shows_symmetry;
          Alcotest.test_case "pinned layout model has no orbits" `Quick
            test_pinned_layout_model_no_orbits;
        ] );
      ( "dedup",
        [ Alcotest.test_case "ordering and counts" `Quick test_dedup_ordering ] );
      ( "scaling",
        [ Alcotest.test_case "factors are powers of two" `Quick
            test_scaling_factors_pow2;
          Alcotest.test_case "integer columns untouched" `Quick
            test_scaling_integer_cols_untouched;
          Alcotest.test_case "bit-exact round-trip" `Quick
            test_scaling_roundtrip_exact;
          Alcotest.test_case "objective invariant" `Quick
            test_scaling_objective_invariant;
          Alcotest.test_case "coefficient range shrinks" `Quick
            test_scaling_improves_range;
        ] );
      ( "properties",
        [ q prop_scaling_preserves_lp_optimum;
          q prop_pinned_optimum_matches_unpinned;
        ] );
    ]
