(* Tests for the LP modeling layer. *)

let build_small () =
  let m = Lp.create ~name:"small" () in
  let x = Lp.add_var m ~name:"x" ~lb:0. ~ub:4. () in
  let y = Lp.add_var m ~name:"y" ~lb:0. () in
  let z = Lp.binary m ~name:"z" () in
  Lp.add_constr m [ (1., x); (2., y) ] Lp.Le 10.;
  Lp.add_constr m [ (1., x); (-1., y); (3., z) ] Lp.Ge 0.;
  Lp.add_constr m [ (1., x); (1., y); (1., z) ] Lp.Eq 5.;
  Lp.set_objective m Lp.Minimize ~constant:1. [ (2., x); (1., y); (5., z) ];
  (m, x, y, z)

let test_build () =
  let m, x, y, z = build_small () in
  Alcotest.(check int) "num vars" 3 (Lp.num_vars m);
  Alcotest.(check int) "num constrs" 3 (Lp.num_constrs m);
  Alcotest.(check string) "var name" "x" (Lp.var_name m x);
  Alcotest.(check string) "default name" "y" (Lp.var_name m y);
  ignore z

let test_standardize () =
  let m, _, _, _ = build_small () in
  let std = Lp.standardize m in
  Alcotest.(check int) "ncols" 3 std.Lp.ncols;
  Alcotest.(check int) "nrows" 3 std.Lp.nrows;
  Alcotest.(check bool) "binary integer" true std.Lp.integer.(2);
  Alcotest.(check (float 0.)) "binary ub" 1. std.Lp.ub.(2);
  Alcotest.(check (float 0.)) "obj" 2. std.Lp.obj.(0);
  Alcotest.(check (float 0.)) "obj const" 1. std.Lp.obj_const;
  Alcotest.(check bool) "minimize" false std.Lp.maximize

let test_duplicate_terms () =
  let m = Lp.create () in
  let x = Lp.add_var m () in
  let y = Lp.add_var m () in
  Lp.add_constr m [ (1., x); (2., x); (1., y); (-1., y) ] Lp.Le 3.;
  let std = Lp.standardize m in
  (* y's net coefficient is 0 and must be dropped *)
  Alcotest.(check int) "row length" 1 (Array.length std.Lp.row_idx.(0));
  Alcotest.(check int) "row var" 0 std.Lp.row_idx.(0).(0);
  Alcotest.(check (float 0.)) "row coef" 3. std.Lp.row_val.(0).(0)

let test_maximize_negation () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. () in
  Lp.set_objective m Lp.Maximize ~constant:10. [ (3., x) ];
  let std = Lp.standardize m in
  Alcotest.(check (float 0.)) "negated obj" (-3.) std.Lp.obj.(0);
  Alcotest.(check (float 0.)) "negated const" (-10.) std.Lp.obj_const;
  Alcotest.(check (float 0.)) "restore" 7. (Lp.restore_objective std (-7.))

let test_check_feasible () =
  let m, _, _, _ = build_small () in
  let std = Lp.standardize m in
  (* x=4, y=1, z=0: row1 4+2=6<=10 ok; row2 4-1=3>=0 ok; row3 5=5 ok *)
  Alcotest.(check bool) "feasible point" true
    (Lp.check_feasible std [| 4.; 1.; 0. |]);
  (* violates equality *)
  Alcotest.(check bool) "infeasible row" false
    (Lp.check_feasible std [| 4.; 2.; 0. |]);
  (* violates bound *)
  Alcotest.(check bool) "bound violation" false
    (Lp.check_feasible std [| 5.; 0.; 0. |]);
  (* violates integrality of z *)
  Alcotest.(check bool) "fractional integer" false
    (Lp.check_feasible std [| 4.; 0.5; 0.5 |]);
  Alcotest.(check (float 1e-9)) "objective" (2. *. 4. +. 1. +. 1.)
    (Lp.eval_objective std [| 4.; 1.; 0. |])

let test_out_of_range () =
  let m = Lp.create () in
  let _x = Lp.add_var m () in
  (match Lp.add_constr m [ (1., 5) ] Lp.Le 1. with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument");
  (match Lp.add_var m ~lb:2. ~ub:1. () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument for crossed bounds")

let test_mps () =
  let m, _, _, _ = build_small () in
  let mps = Lp.to_mps m in
  let has sub =
    let n = String.length sub and h = String.length mps in
    let rec go i = i + n <= h && (String.sub mps i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun section ->
       Alcotest.(check bool) (section ^ " present") true (has section))
    [ "NAME"; "ROWS"; "COLUMNS"; "RHS"; "BOUNDS"; "ENDATA"; "INTORG"; "INTEND" ]

(* Reference normalization: sum each variable's terms in list order from
   [0.] through a hash table, drop exact zeros, sort by variable. *)
let reference_terms terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, v) ->
       let prev = try Hashtbl.find tbl v with Not_found -> 0. in
       Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0. then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Coefficients that cancel (0.1 + 0.2 - 0.3, x - x), signed zeros, and
   magnitudes far apart, so the order of the sums shows in the last bit. *)
let gen_terms =
  let open QCheck2.Gen in
  let coef =
    oneof
      [ oneofl [ 1.; -1.; 0.; -0.; 0.1; 0.2; -0.3; 0.5; 3.; 1e-17; -1e16 ];
        float_range (-10.) 10. ]
  in
  let* nvars = int_range 1 6 in
  let* terms = list_size (int_range 0 12) (pair coef (int_range 0 (nvars - 1))) in
  return (nvars, terms)

let prop_rows_match_reference =
  QCheck2.Test.make ~count:500
    ~name:"add_constr rows equal the hash-table normalization bit for bit"
    ~print:(fun (n, terms) ->
        Printf.sprintf "%d vars: %s" n
          (String.concat "; "
             (List.map (fun (c, v) -> Printf.sprintf "%h*x%d" c v) terms)))
    gen_terms
    (fun (nvars, terms) ->
       let m = Lp.create () in
       for _ = 1 to nvars do ignore (Lp.add_var m ()) done;
       Lp.add_constr m terms Lp.Le 0.;
       let std = Lp.standardize m in
       let got =
         Array.to_list
           (Array.map2 (fun v c -> (v, c)) std.Lp.row_idx.(0) std.Lp.row_val.(0))
       in
       let want = reference_terms terms in
       List.length got = List.length want
       && List.for_all2
            (fun (v, c) (v', c') ->
               v = v'
               && Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float c'))
            got want)

let () =
  Alcotest.run "lp"
    [ ("model",
       [ Alcotest.test_case "build" `Quick test_build;
         Alcotest.test_case "standardize" `Quick test_standardize;
         Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms;
         Alcotest.test_case "maximize negation" `Quick test_maximize_negation;
         Alcotest.test_case "check_feasible" `Quick test_check_feasible;
         Alcotest.test_case "out of range" `Quick test_out_of_range;
         Alcotest.test_case "mps export" `Quick test_mps;
       ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_rows_match_reference ]);
    ]
