(* Tests for the static-analysis passes: Vpart_analysis.Diagnostic,
   Vpart_analysis.Model_lint and Vpart.Instance_lint. *)

open Vpart
module D = Vpart_analysis.Diagnostic
module Model_lint = Vpart_analysis.Model_lint

let codes ds = D.codes ds

let error_codes ds = codes (D.errors ds)

let check_codes msg expected ds =
  Alcotest.(check (list string)) msg expected (codes ds)

(* ------------------------------------------------------------------ *)
(* Diagnostic basics                                                   *)
(* ------------------------------------------------------------------ *)

let test_diagnostic_basics () =
  let e = D.error ~code:"M001" "bad %s %d" "thing" 7 in
  Alcotest.(check string) "formatted message" "bad thing 7" e.D.message;
  Alcotest.(check bool) "is_error" true (D.is_error e);
  Alcotest.(check string) "pp" "error[M001] bad thing 7" (D.to_string e);
  let w = D.warning ~code:"M004" "w" and i = D.info ~code:"M011" "i" in
  Alcotest.(check bool) "warning not error" false (D.is_error w);
  Alcotest.(check bool) "severity order" true
    (D.compare_severity D.Error D.Warning < 0
     && D.compare_severity D.Warning D.Info < 0
     && D.compare_severity D.Info D.Info = 0);
  let ds = [ i; w; e; w ] in
  Alcotest.(check bool) "has_errors" true (D.has_errors ds);
  Alcotest.(check int) "count warnings" 2 (D.count D.Warning ds);
  Alcotest.(check (list string)) "codes sorted uniq"
    [ "M001"; "M004"; "M011" ] (codes ds);
  Alcotest.(check (list string)) "errors picks errors" [ "M001" ]
    (error_codes ds);
  let promoted = D.promote_warnings ds in
  Alcotest.(check int) "promote: no warnings left" 0
    (D.count D.Warning promoted);
  Alcotest.(check int) "promote: errors grew" 3 (D.count D.Error promoted);
  (match D.sort ds with
   | first :: _ -> Alcotest.(check string) "sort: error first" "M001" first.D.code
   | [] -> Alcotest.fail "sort dropped findings");
  Alcotest.(check string) "empty report"
    "no findings" (Format.asprintf "%a" D.pp_report [])

(* ------------------------------------------------------------------ *)
(* Model lint: one fixture per code                                    *)
(* ------------------------------------------------------------------ *)

(* Hand-built standard forms: Lp.add_var/add_constr now reject most of
   these defects at construction time, so negative tests must assemble
   the frozen record directly. *)
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

let test_m001_crossed_bounds () =
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 5.) ] ~lb:(fun _ -> 2.) in
  check_codes "lb > ub" [ "M001" ] (Model_lint.lint std)

let test_m002_m003_empty_rows () =
  let std = mk_std 0 [ ([], [], Lp.Eq, 1.); ([], [], Lp.Le, 0.) ] in
  check_codes "0 = 1 and 0 <= 0" [ "M002"; "M003" ] (Model_lint.lint std)

let test_m004_duplicate_row () =
  let row = ([ 0 ], [ 1. ], Lp.Le, 1.) in
  let std = mk_std 1 [ row; row ] in
  check_codes "duplicate row" [ "M004" ] (Model_lint.lint std)

let test_m004_scaled_parallel_row () =
  (* 2x <= 2 is the same constraint as x <= 1 *)
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 1.); ([ 0 ], [ 2. ], Lp.Le, 2.) ] in
  check_codes "scaled parallel row" [ "M004" ] (Model_lint.lint std)

let test_m005_contradicting_rows () =
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Eq, 0.); ([ 0 ], [ 1. ], Lp.Eq, 1.) ] in
  check_codes "x = 0 vs x = 1" [ "M005" ] (Model_lint.lint std)

let test_m006_infeasible_activity () =
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Ge, 2.) ] in
  check_codes "x >= 2 with x <= 1" [ "M006" ] (Model_lint.lint std)

let test_m007_redundant_activity () =
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 2.) ] in
  check_codes "x <= 2 with x <= 1" [ "M007" ] (Model_lint.lint std)

let test_m008_dangling_variable () =
  let std =
    mk_std 2 [ ([ 0 ], [ 1. ], Lp.Le, 1.) ]
      ~obj:(fun j -> if j = 0 then 1. else 0.)
  in
  check_codes "x1 unused" [ "M008" ] (Model_lint.lint std)

let test_m009_fractional_integer_bound () =
  let std =
    mk_std 1 [ ([ 0 ], [ 1. ], Lp.Ge, 1.) ]
      ~ub:(fun _ -> 2.5) ~integer:(fun _ -> true)
  in
  check_codes "integer with ub 2.5" [ "M009" ] (Model_lint.lint std)

let test_m010_conditioning () =
  let std = mk_std 2 [ ([ 0; 1 ], [ 1e-6; 1e6 ], Lp.Le, 1e6) ] in
  check_codes "1e12 coefficient ratio" [ "M010" ] (Model_lint.lint std)

let test_m011_fixed_variable () =
  let std =
    mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 1.) ] ~lb:(fun _ -> 1.) ~ub:(fun _ -> 1.)
  in
  check_codes "lb = ub" [ "M011" ] (Model_lint.lint std)

let test_m012_non_finite_data () =
  let nan_bound = mk_std 1 [] ~lb:(fun _ -> Float.nan) in
  check_codes "NaN bound" [ "M012" ] (Model_lint.lint nan_bound);
  let nan_obj = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 1.) ] ~obj:(fun _ -> Float.nan) in
  check_codes "NaN objective" [ "M012" ] (Model_lint.lint nan_obj);
  let inf_rhs = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, Float.infinity) ] in
  check_codes "infinite rhs" [ "M012" ] (Model_lint.lint inf_rhs);
  let nan_coef = mk_std 1 [ ([ 0 ], [ Float.nan ], Lp.Le, 1.) ] in
  check_codes "NaN coefficient" [ "M012" ] (Model_lint.lint nan_coef)

let test_clean_model_no_findings () =
  (* a well-formed model built through the public API lints clean *)
  let m = Lp.create ~name:"clean" () in
  let x = Lp.binary m ~name:"x" () and y = Lp.binary m ~name:"y" () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 1.;
  Lp.set_objective m Lp.Minimize [ (1., x); (2., y) ];
  check_codes "no findings" [] (Model_lint.lint_model m);
  Alcotest.(check (list string)) "assert_clean returns non-errors" []
    (codes (Model_lint.assert_clean (Lp.standardize m)))

let test_assert_clean_raises () =
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 5.) ] ~lb:(fun _ -> 2.) in
  match Model_lint.assert_clean std with
  | _ -> Alcotest.fail "assert_clean accepted an infeasible model"
  | exception D.Errors errs ->
    Alcotest.(check (list string)) "raised with M001" [ "M001" ] (codes errs)

(* The acceptance fixture from the issue: a model with a crossed-bound
   variable and a duplicated row yields exactly those two findings. *)
let test_acceptance_exact_codes () =
  let std =
    mk_std 2
      [ ([ 0 ], [ 1. ], Lp.Le, 1.);
        ([ 0 ], [ 1. ], Lp.Le, 1.);   (* duplicate of row 0 *)
        ([ 1 ], [ 1. ], Lp.Le, 5.);
      ]
      ~lb:(fun j -> if j = 1 then 2. else 0.)  (* x1: lb 2 > ub 1 *)
  in
  check_codes "exactly M001 + M004" [ "M001"; "M004" ] (Model_lint.lint std)

let test_var_names_in_messages () =
  let std = mk_std 1 [ ([ 0 ], [ 1. ], Lp.Le, 5.) ] ~lb:(fun _ -> 2.) in
  match Model_lint.lint ~var_name:(fun _ -> "y_3_1") std with
  | [ d ] ->
    Alcotest.(check bool) "names the variable" true
      (String.length d.D.message > 0
       && String.sub d.D.message 9 5 = "y_3_1")
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Instance lint                                                       *)
(* ------------------------------------------------------------------ *)

let mk_schema () =
  Schema.make [ ("T", [ ("A", 4); ("B", 4) ]); ("U", [ ("C", 8) ]) ]

let rq ?(freq = 1.) name tables attrs =
  { Workload.q_name = name; kind = Workload.Read; freq; tables; attrs }

let wq ?(freq = 1.) name tables attrs =
  { Workload.q_name = name; kind = Workload.Write; freq; tables; attrs }

(* Clean fixture: every attribute read, both kinds present, no table
   always co-accessed. *)
let clean_instance () =
  let schema = mk_schema () in
  let wl =
    Workload.make
      ~queries:
        [ rq "r1" [ (0, 1.) ] [ 0 ];
          rq "r2" [ (0, 1.); (1, 1.) ] [ 1; 2 ];
          wq "w1" [ (1, 1.) ] [ 2 ];
        ]
      ~transactions:
        [ { Workload.t_name = "t1"; queries = [ 0; 1 ] };
          { Workload.t_name = "t2"; queries = [ 2 ] };
        ]
  in
  Instance.make ~name:"clean" schema wl

(* Instance.make validates, so defective fixtures are assembled directly
   (the record is public; Workload.make only checks txn/query linkage). *)
let raw_instance queries transactions =
  { Instance.name = "raw";
    schema = mk_schema ();
    workload = Workload.make ~queries ~transactions;
  }

let one_txn n = [ { Workload.t_name = "t1"; queries = List.init n Fun.id } ]

let test_instance_clean () =
  check_codes "clean instance" [] (Instance_lint.lint (clean_instance ()))

let test_i001_referential () =
  (* attribute id 5 out of range; attribute 2 (U.C) accessed without
     touching U *)
  let inst =
    raw_instance
      [ rq "r1" [ (0, 1.) ] [ 0; 5 ]; rq "r2" [ (0, 1.) ] [ 0; 2 ] ]
      (one_txn 2)
  in
  Alcotest.(check (list string)) "I001 errors" [ "I001" ]
    (error_codes (Instance_lint.lint inst))

let test_i002_bad_stats () =
  let inst =
    raw_instance
      [ rq ~freq:Float.nan "r1" [ (0, 1.) ] [ 0; 1 ];
        rq "r2" [ (0, -2.); (1, 1.) ] [ 0; 1; 2 ];
      ]
      (one_txn 2)
  in
  Alcotest.(check (list string)) "NaN freq + negative rows" [ "I002" ]
    (error_codes (Instance_lint.lint inst))

let test_i003_unused_attribute () =
  let inst =
    raw_instance
      [ rq "r1" [ (0, 1.) ] [ 0 ]; wq "w1" [ (1, 1.) ] [ 2 ];
        rq "r2" [ (1, 1.) ] [ 2 ] ]
      (one_txn 3)
  in
  let ds = Instance_lint.lint inst in
  Alcotest.(check bool) "B unused -> I003" true (List.mem "I003" (codes ds));
  Alcotest.(check (list string)) "warning only" [] (error_codes ds)

let test_i004_write_only_attribute () =
  let inst =
    raw_instance
      [ rq "r1" [ (0, 1.) ] [ 0; 1 ]; wq "w1" [ (1, 1.) ] [ 2 ] ]
      (one_txn 2)
  in
  Alcotest.(check bool) "C write-only -> I004" true
    (List.mem "I004" (codes (Instance_lint.lint inst)))

let test_i005_degenerate_transaction () =
  let inst =
    { Instance.name = "raw";
      schema = mk_schema ();
      workload =
        Workload.make
          ~queries:[ rq "r1" [ (0, 1.) ] [ 0; 1 ]; rq "r2" [ (1, 1.) ] [ 2 ] ]
          ~transactions:
            [ { Workload.t_name = "t1"; queries = [ 0; 1 ] };
              { Workload.t_name = "empty"; queries = [] };
            ];
    }
  in
  Alcotest.(check bool) "empty transaction -> I005" true
    (List.mem "I005" (codes (Instance_lint.lint inst)))

let test_i006_table_without_attrs () =
  let inst =
    raw_instance
      [ rq "r1" [ (0, 1.); (1, 1.) ] [ 0; 1 ] ]  (* touches U, reads only T *)
      (one_txn 1)
  in
  let ds = Instance_lint.lint inst in
  Alcotest.(check bool) "I006 reported" true (List.mem "I006" (codes ds));
  Alcotest.(check (list string)) "warning only" [] (error_codes ds)

let test_i007_implausible_magnitude () =
  let inst =
    raw_instance
      [ rq ~freq:1e15 "r1" [ (0, 1.) ] [ 0; 1 ]; rq "r2" [ (1, 1.) ] [ 2 ] ]
      (one_txn 2)
  in
  let ds = Instance_lint.lint inst in
  Alcotest.(check bool) "I007 reported" true (List.mem "I007" (codes ds));
  Alcotest.(check (list string)) "warning only" [] (error_codes ds)

let test_i008_one_sided_workload () =
  let inst =
    raw_instance
      [ rq "r1" [ (0, 1.) ] [ 0 ]; rq "r2" [ (0, 1.); (1, 1.) ] [ 1; 2 ] ]
      (one_txn 2)
  in
  Alcotest.(check bool) "read-only workload -> I008" true
    (List.mem "I008" (codes (Instance_lint.lint inst)))

let test_i009_co_accessed_table () =
  let inst =
    raw_instance
      [ rq "r1" [ (0, 1.) ] [ 0; 1 ]; rq "r2" [ (0, 1.); (1, 1.) ] [ 0; 1; 2 ];
        wq "w1" [ (1, 1.) ] [ 2 ] ]
      (one_txn 3)
  in
  Alcotest.(check bool) "T always co-accessed -> I009" true
    (List.mem "I009" (codes (Instance_lint.lint inst)))

(* ------------------------------------------------------------------ *)
(* Partitioning lint                                                   *)
(* ------------------------------------------------------------------ *)

let test_partitioning_clean () =
  let inst = clean_instance () in
  check_codes "single-site partitioning" []
    (Instance_lint.lint_partitioning inst (Partitioning.single_site inst))

let two_site_all_on_0 inst =
  let part =
    Partitioning.create ~num_sites:2
      ~num_txns:(Instance.num_transactions inst)
      ~num_attrs:(Instance.num_attrs inst)
  in
  Array.iteri (fun a _ -> part.Partitioning.placed.(a).(0) <- true)
    part.Partitioning.placed;
  part

let test_p001_shape_mismatch () =
  let inst = clean_instance () in
  let part = Partitioning.create ~num_sites:1 ~num_txns:1 ~num_attrs:2 in
  Alcotest.(check (list string)) "shape mismatch" [ "P001" ]
    (error_codes (Instance_lint.lint_partitioning inst part))

let test_p002_site_out_of_range () =
  let inst = clean_instance () in
  let part = two_site_all_on_0 inst in
  part.Partitioning.txn_site.(0) <- 7;
  Alcotest.(check bool) "P002 reported" true
    (List.mem "P002" (error_codes (Instance_lint.lint_partitioning inst part)))

let test_p003_uncovered_attribute () =
  let inst = clean_instance () in
  let part = two_site_all_on_0 inst in
  part.Partitioning.placed.(0).(0) <- false;
  Alcotest.(check bool) "P003 reported" true
    (List.mem "P003" (error_codes (Instance_lint.lint_partitioning inst part)))

let test_p004_single_sitedness () =
  let inst = clean_instance () in
  let part = two_site_all_on_0 inst in
  (* t1 reads A, B, C, all placed on site 0 only; home it on site 1 *)
  part.Partitioning.txn_site.(0) <- 1;
  Alcotest.(check bool) "P004 reported" true
    (List.mem "P004" (error_codes (Instance_lint.lint_partitioning inst part)))

let test_p005_p006_infos () =
  let inst = clean_instance () in
  let part = two_site_all_on_0 inst in
  (* replicate A on site 1 where no reader is homed *)
  part.Partitioning.placed.(0).(1) <- true;
  let ds = Instance_lint.lint_partitioning inst part in
  Alcotest.(check bool) "P005 reported" true (List.mem "P005" (codes ds));
  Alcotest.(check (list string)) "infos only" [] (error_codes ds);
  let empty = two_site_all_on_0 inst in
  Alcotest.(check bool) "empty site -> P006" true
    (List.mem "P006" (codes (Instance_lint.lint_partitioning inst empty)))

(* ------------------------------------------------------------------ *)
(* Bundled instances lint clean                                        *)
(* ------------------------------------------------------------------ *)

let test_bundled_instances_no_errors () =
  (* cwd is _build/default/test under `dune runtest`, the repo root under
     a bare `dune exec` *)
  let dir = if Sys.file_exists "instances" then "instances" else "../instances" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "found bundled instances" true (files <> []);
  List.iter
    (fun f ->
       let inst = Codec.load_instance (Filename.concat dir f) in
       match D.errors (Instance_lint.lint inst) with
       | [] -> ()
       | errs ->
         Alcotest.failf "%s: %d error(s), first: %s" f (List.length errs)
           (D.to_string (List.hd errs)))
    files

(* ------------------------------------------------------------------ *)
(* Solver integration: fail fast on corrupted statistics               *)
(* ------------------------------------------------------------------ *)

let nan_freq_instance () =
  raw_instance
    [ rq ~freq:Float.nan "r1" [ (0, 1.) ] [ 0; 1 ];
      rq "r2" [ (1, 1.) ] [ 2 ];
      wq "w1" [ (1, 1.) ] [ 2 ] ]
    (one_txn 3)

let small_qp_options =
  { Qp_solver.default_options with
    Qp_solver.num_sites = 2;
    time_limit = 5.;
  }

(* Grouping rebuilds the reduced instance through Instance.make, whose
   validation would reject the NaN before the solver sees it; turning
   grouping off exercises the model-lint gate itself. *)
let no_grouping_options =
  { small_qp_options with Qp_solver.use_grouping = false }

let test_qp_solver_refuses_nan () =
  match Qp_solver.solve ~options:no_grouping_options (nan_freq_instance ()) with
  | _ -> Alcotest.fail "qp_solver accepted NaN statistics"
  | exception D.Errors errs ->
    Alcotest.(check bool) "M012 in errors" true
      (List.mem "M012" (codes errs))

let test_iterative_solver_refuses_nan () =
  let options =
    { Iterative_solver.default_options with
      Iterative_solver.qp = no_grouping_options }
  in
  match Iterative_solver.solve ~options (nan_freq_instance ()) with
  | _ -> Alcotest.fail "iterative solver accepted NaN statistics"
  | exception D.Errors _ -> ()

let test_solver_reports_diagnostics () =
  let r = Qp_solver.solve ~options:small_qp_options (clean_instance ()) in
  Alcotest.(check (list string)) "no error-level diagnostics" []
    (error_codes r.Qp_solver.diagnostics)

(* ------------------------------------------------------------------ *)
(* Property: generated instances build lint-clean MIPs                *)
(* ------------------------------------------------------------------ *)

let gen_params seed =
  { Instance_gen.default_params with
    Instance_gen.name = Printf.sprintf "lint%d" seed;
    num_tables = 4;
    num_transactions = 4;
    max_attrs_per_table = 4;
    max_queries_per_txn = 2;
    max_tables_per_query = 2;
    max_attrs_per_query = 4;
  }

let model_for seed =
  let inst = Instance_gen.generate ~seed (gen_params seed) in
  let grouping = Grouping.compute inst in
  let stats = Stats.compute grouping.Grouping.reduced ~p:8. in
  let model, _ = Qp_solver.build_model stats small_qp_options in
  model

let prop_generated_mip_lints_clean =
  QCheck.Test.make ~count:25 ~name:"generated MIP has no lint errors"
    QCheck.small_int (fun seed ->
      error_codes (Model_lint.lint_model (model_for seed)) = [])

(* ------------------------------------------------------------------ *)
(* Parallel rows: the support-first check against the string-keyed one *)
(* ------------------------------------------------------------------ *)

(* The M004/M005 check keyed by every row's normalized coefficient
   string, with no support pass in front of it. *)
let reference_parallel (std : Lp.std) =
  let out = ref [] in
  let buckets = Hashtbl.create 64 in
  for r = 0 to std.Lp.nrows - 1 do
    let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
    let bad v = Float.is_nan v || Float.abs v = infinity in
    if Array.length idx > 0 && not (Array.exists bad value)
       && not (Float.is_nan std.Lp.rhs.(r))
    then begin
      let lead = value.(0) in
      if lead <> 0. then begin
        let buf = Buffer.create 64 in
        Array.iteri
          (fun k v ->
             Buffer.add_string buf
               (Printf.sprintf "%d:%.12g;" idx.(k) (v /. lead)))
          value;
        let key = Buffer.contents buf in
        let cmp =
          match (lead > 0., std.Lp.row_cmp.(r)) with
          | true, c -> c
          | false, Lp.Le -> Lp.Ge
          | false, Lp.Ge -> Lp.Le
          | false, Lp.Eq -> Lp.Eq
        in
        let b = std.Lp.rhs.(r) /. lead in
        let lo, hi =
          match cmp with
          | Lp.Le -> (neg_infinity, b)
          | Lp.Ge -> (b, infinity)
          | Lp.Eq -> (b, b)
        in
        match Hashtbl.find_opt buckets key with
        | None -> Hashtbl.add buckets key (ref r, ref lo, ref hi)
        | Some (first, cur_lo, cur_hi) ->
          let tol = 1e-9 *. (1. +. Float.abs std.Lp.rhs.(r)) in
          if lo > !cur_hi +. tol || hi < !cur_lo -. tol then
            out :=
              D.error ~code:"M005"
                "row %d: parallel to row %d but mutually exclusive with it" r
                !first
              :: !out
          else if lo <= !cur_lo +. tol && hi >= !cur_hi -. tol then
            out :=
              D.warning ~code:"M004"
                "row %d: duplicate/parallel of row %d (redundant)" r !first
              :: !out
          else begin
            cur_lo := Float.max !cur_lo lo;
            cur_hi := Float.min !cur_hi hi
          end
      end
    end
  done;
  List.rev !out

(* Models of a few base rows plus planted rows built from them: exact
   duplicates, scaled copies (negative factors flip the sense),
   contradictions and rows on the same support with other coefficients,
   shuffled together. *)
let gen_parallel_model =
  let open QCheck2.Gen in
  let* ncols = int_range 1 5 in
  let row =
    let* support =
      list_size (int_range 1 ncols) (int_range 0 (ncols - 1))
    in
    let* coefs =
      flatten_l
        (List.map
           (fun _ -> oneofl [ 1.; -1.; 2.; -3.; 0.5; 0.1; 7. ])
           support)
    in
    let* cmp = oneofl [ Lp.Le; Lp.Ge; Lp.Eq ] in
    let* rhs = oneofl [ 0.; 1.; -1.; 2.; 0.3 ] in
    return (List.combine coefs support, cmp, rhs)
  in
  let* base = list_size (int_range 1 5) row in
  let plant (terms, cmp, rhs) =
    let* kind = int_range 0 3 in
    match kind with
    | 0 -> return (terms, cmp, rhs)
    | 1 ->
      let* f = oneofl [ 2.; -1.; 0.5; -3.; 1. /. 3.; 1e-3 ] in
      let cmp =
        if f > 0. then cmp
        else match cmp with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq
      in
      return (List.map (fun (c, v) -> (f *. c, v)) terms, cmp, f *. rhs)
    | 2 ->
      let* shift = oneofl [ 1.; -2.; 1e-12 ] in
      return (terms, Lp.Eq, rhs +. shift)
    | _ ->
      let* c = oneofl [ 5.; -0.25 ] in
      return
        ( (match terms with (_, v) :: rest -> (c, v) :: rest | [] -> []),
          cmp, rhs )
  in
  let* planted =
    list_size (int_range 0 8) (let* b = oneofl base in plant b)
  in
  let* rows = shuffle_l (base @ planted) in
  return (ncols, rows)

let prop_parallel_matches_reference =
  QCheck2.Test.make ~count:500
    ~name:"M004/M005 findings equal the string-keyed check, in order"
    gen_parallel_model
    (fun (ncols, rows) ->
       let m = Lp.create () in
       for _ = 1 to ncols do
         ignore (Lp.add_var m ~lb:(-10.) ~ub:10. ())
       done;
       List.iter
         (fun (terms, cmp, rhs) ->
            (* a row that cancels to empty is not a parallel candidate *)
            try Lp.add_constr m terms cmp rhs with Invalid_argument _ -> ())
         rows;
       let std = Lp.standardize m in
       let parallel =
         List.filter
           (fun d -> d.D.code = "M004" || d.D.code = "M005")
           (Model_lint.lint std)
       in
       List.map D.to_string parallel
       = List.map D.to_string (reference_parallel std))

(* The lint runs on every QP solve; on a clean layout model it should
   allocate next to nothing per row (measured: 0.4 minor words), not a
   formatted key per nonzero. *)
let test_lint_allocation_budget () =
  let inst = Instance_gen.generate ~seed:1 (Instance_gen.find "rndBt4x100") in
  let stats = Stats.compute (Grouping.compute inst).Grouping.reduced ~p:8. in
  let model, _ = Qp_solver.build_model stats small_qp_options in
  let std = Lp.standardize model in
  ignore (Model_lint.lint std);
  let before = Gc.minor_words () in
  let ds = Model_lint.lint std in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list string)) "no parallel rows" []
    (List.filter (fun c -> c = "M004" || c = "M005") (codes ds));
  let per_row = words /. float_of_int std.Lp.nrows in
  if per_row > 2. then
    Alcotest.failf "lint allocated %.2f minor words per row (budget 2)" per_row

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [ ( "diagnostic",
        [ Alcotest.test_case "basics" `Quick test_diagnostic_basics ] );
      ( "model-lint",
        [ Alcotest.test_case "M001 crossed bounds" `Quick test_m001_crossed_bounds;
          Alcotest.test_case "M002/M003 empty rows" `Quick test_m002_m003_empty_rows;
          Alcotest.test_case "M004 duplicate row" `Quick test_m004_duplicate_row;
          Alcotest.test_case "M004 scaled parallel" `Quick
            test_m004_scaled_parallel_row;
          Alcotest.test_case "M005 contradicting rows" `Quick
            test_m005_contradicting_rows;
          Alcotest.test_case "M006 infeasible activity" `Quick
            test_m006_infeasible_activity;
          Alcotest.test_case "M007 redundant row" `Quick
            test_m007_redundant_activity;
          Alcotest.test_case "M008 dangling variable" `Quick
            test_m008_dangling_variable;
          Alcotest.test_case "M009 fractional integer bound" `Quick
            test_m009_fractional_integer_bound;
          Alcotest.test_case "M010 conditioning" `Quick test_m010_conditioning;
          Alcotest.test_case "M011 fixed variable" `Quick test_m011_fixed_variable;
          Alcotest.test_case "M012 non-finite data" `Quick
            test_m012_non_finite_data;
          Alcotest.test_case "clean model" `Quick test_clean_model_no_findings;
          Alcotest.test_case "assert_clean raises" `Quick test_assert_clean_raises;
          Alcotest.test_case "acceptance: exact codes" `Quick
            test_acceptance_exact_codes;
          Alcotest.test_case "variable names in messages" `Quick
            test_var_names_in_messages;
        ] );
      ( "instance-lint",
        [ Alcotest.test_case "clean instance" `Quick test_instance_clean;
          Alcotest.test_case "I001 referential" `Quick test_i001_referential;
          Alcotest.test_case "I002 bad statistics" `Quick test_i002_bad_stats;
          Alcotest.test_case "I003 unused attribute" `Quick
            test_i003_unused_attribute;
          Alcotest.test_case "I004 write-only attribute" `Quick
            test_i004_write_only_attribute;
          Alcotest.test_case "I005 degenerate transaction" `Quick
            test_i005_degenerate_transaction;
          Alcotest.test_case "I006 table without attrs" `Quick
            test_i006_table_without_attrs;
          Alcotest.test_case "I007 implausible magnitude" `Quick
            test_i007_implausible_magnitude;
          Alcotest.test_case "I008 one-sided workload" `Quick
            test_i008_one_sided_workload;
          Alcotest.test_case "I009 co-accessed table" `Quick
            test_i009_co_accessed_table;
        ] );
      ( "partitioning-lint",
        [ Alcotest.test_case "clean single-site" `Quick test_partitioning_clean;
          Alcotest.test_case "P001 shape mismatch" `Quick test_p001_shape_mismatch;
          Alcotest.test_case "P002 site out of range" `Quick
            test_p002_site_out_of_range;
          Alcotest.test_case "P003 uncovered attribute" `Quick
            test_p003_uncovered_attribute;
          Alcotest.test_case "P004 single-sitedness" `Quick
            test_p004_single_sitedness;
          Alcotest.test_case "P005/P006 infos" `Quick test_p005_p006_infos;
        ] );
      ( "bundled-instances",
        [ Alcotest.test_case "no errors in instances/" `Quick
            test_bundled_instances_no_errors ] );
      ( "solver-integration",
        [ Alcotest.test_case "qp_solver refuses NaN stats" `Quick
            test_qp_solver_refuses_nan;
          Alcotest.test_case "iterative solver refuses NaN stats" `Quick
            test_iterative_solver_refuses_nan;
          Alcotest.test_case "clean solve reports no errors" `Quick
            test_solver_reports_diagnostics;
        ] );
      ( "parallel-rows",
        [ q prop_parallel_matches_reference;
          Alcotest.test_case "lint allocation budget" `Quick
            test_lint_allocation_budget;
        ] );
      ( "properties",
        [ q prop_generated_mip_lints_clean ]
      );
    ]
