(* Tests for the bounded-variable simplex solver. *)

let solve_model m = Simplex.solve (Lp.standardize m)

let check_status name expected (r : Simplex.result) =
  Alcotest.(check string) name
    (Simplex.string_of_status expected)
    (Simplex.string_of_status r.Simplex.status)

let test_textbook_max () =
  (* max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.  Optimum 12 at (4,0). *)
  let m = Lp.create () in
  let x = Lp.add_var m () and y = Lp.add_var m () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constr m [ (1., x); (3., y) ] Lp.Le 6.;
  Lp.set_objective m Lp.Maximize [ (3., x); (2., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  let std = Lp.standardize m in
  Alcotest.(check (float 1e-6)) "objective" 12. (Lp.restore_objective std r.Simplex.obj);
  Alcotest.(check (float 1e-6)) "x" 4. r.Simplex.x.(0);
  Alcotest.(check (float 1e-6)) "y" 0. r.Simplex.x.(1)

let test_equality_rows () =
  (* min x + 2y  s.t. x + y = 2, x - y = 0, x,y in [0,3] -> x=y=1, obj 3. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:3. () and y = Lp.add_var m ~ub:3. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 2.;
  Lp.add_constr m [ (1., x); (-1., y) ] Lp.Eq 0.;
  Lp.set_objective m Lp.Minimize [ (1., x); (2., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "objective" 3. r.Simplex.obj;
  Alcotest.(check (float 1e-6)) "x" 1. r.Simplex.x.(0);
  Alcotest.(check (float 1e-6)) "y" 1. r.Simplex.x.(1)

let test_ge_rows () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1, y >= 1 -> (3,1) obj 9. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:1. () and y = Lp.add_var m ~lb:1. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 4.;
  Lp.set_objective m Lp.Minimize [ (2., x); (3., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "objective" 9. r.Simplex.obj

let test_infeasible () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:1. () in
  Lp.add_constr m [ (1., x) ] Lp.Ge 2.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let r = solve_model m in
  check_status "status" Simplex.Infeasible r

let test_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var m () in
  (* min -x with x >= 0 and no upper bound *)
  Lp.set_objective m Lp.Minimize [ (-1., x) ];
  let r = solve_model m in
  check_status "status" Simplex.Unbounded r

let test_free_variable () =
  (* min x  s.t. x >= -5 (as a row), x free -> obj -5. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:neg_infinity () in
  Lp.add_constr m [ (1., x) ] Lp.Ge (-5.);
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "objective" (-5.) r.Simplex.obj

let test_upper_bounds_active () =
  (* max x + y with x <= 2, y <= 3 boxed, one slack row. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. () and y = Lp.add_var m ~ub:3. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 10.;
  Lp.set_objective m Lp.Maximize [ (1., x); (1., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  let std = Lp.standardize m in
  Alcotest.(check (float 1e-6)) "objective" 5. (Lp.restore_objective std r.Simplex.obj)

let test_degenerate () =
  (* Classic degenerate LP; must terminate (anti-cycling). *)
  let m = Lp.create () in
  let x1 = Lp.add_var m () and x2 = Lp.add_var m () and x3 = Lp.add_var m () in
  Lp.add_constr m [ (0.5, x1); (-5.5, x2); (-2.5, x3) ] Lp.Le 0.;
  Lp.add_constr m [ (0.5, x1); (-1.5, x2); (-0.5, x3) ] Lp.Le 0.;
  Lp.add_constr m [ (1., x1) ] Lp.Le 1.;
  Lp.set_objective m Lp.Maximize [ (10., x1); (-57., x2); (-9., x3) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  (* optimum of Beale's example variant: x1=1 with suitable x2,x3 *)
  Alcotest.(check bool) "finite objective" true (Float.is_finite r.Simplex.obj)

let test_negative_rhs () =
  (* min x + y s.t. -x - y <= -3 (i.e. x + y >= 3), x,y in [0,5]. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:5. () and y = Lp.add_var m ~ub:5. () in
  Lp.add_constr m [ (-1., x); (-1., y) ] Lp.Le (-3.);
  Lp.set_objective m Lp.Minimize [ (1., x); (1., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "objective" 3. r.Simplex.obj

let test_incremental_bound_change () =
  (* Warm-started branching pattern: tighten a bound, reoptimize, relax. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:1. () and y = Lp.add_var m ~ub:1. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 1.;
  Lp.set_objective m Lp.Minimize [ (1., x); (2., y) ];
  let t = Simplex.create (Lp.standardize m) in
  let st = Simplex.reoptimize t in
  Alcotest.(check string) "root optimal" "optimal" (Simplex.string_of_status st);
  Alcotest.(check (float 1e-6)) "root obj" 1. (Simplex.objective t);
  (* force x = 0: optimum flips to y = 1, obj 2 *)
  Simplex.set_bounds t x ~lb:0. ~ub:0.;
  let st = Simplex.reoptimize t in
  Alcotest.(check string) "child optimal" "optimal" (Simplex.string_of_status st);
  Alcotest.(check (float 1e-6)) "child obj" 2. (Simplex.objective t);
  Alcotest.(check (float 1e-6)) "child y" 1. (Simplex.primal_value t y);
  (* restore: optimum returns *)
  Simplex.set_bounds t x ~lb:0. ~ub:1.;
  let st = Simplex.reoptimize t in
  Alcotest.(check string) "restored optimal" "optimal" (Simplex.string_of_status st);
  Alcotest.(check (float 1e-6)) "restored obj" 1. (Simplex.objective t)

let test_primal_method () =
  (* Run the primal method from an already primal-feasible point. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:4. () and y = Lp.add_var m ~ub:4. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 6.;
  Lp.set_objective m Lp.Maximize [ (2., x); (1., y) ];
  let std = Lp.standardize m in
  let t = Simplex.create std in
  let st = Simplex.reoptimize t in
  Alcotest.(check string) "dual result" "optimal" (Simplex.string_of_status st);
  let obj_dual = Simplex.objective t in
  let st = Simplex.primal_simplex t in
  Alcotest.(check string) "primal result" "optimal" (Simplex.string_of_status st);
  Alcotest.(check (float 1e-6)) "same objective" obj_dual (Simplex.objective t);
  Alcotest.(check (float 1e-6)) "value" (-10.) obj_dual

(* ------------------------------------------------------------------ *)
(* Robustness: pathological inputs                                     *)
(* ------------------------------------------------------------------ *)

let test_redundant_rows () =
  (* the same constraint five times: the basis stays manageable *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:3. () and y = Lp.add_var m ~ub:3. () in
  for _ = 1 to 5 do
    Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 4.
  done;
  Lp.set_objective m Lp.Maximize [ (1., x); (2., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  let std = Lp.standardize m in
  Alcotest.(check (float 1e-6)) "objective" 7.
    (Lp.restore_objective std r.Simplex.obj)

let test_zero_row () =
  (* a 0 = 0 row (all coefficients cancelled) must not break anything *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. () in
  Lp.add_constr m [ (1., x); (-1., x) ] Lp.Le 0.;
  Lp.set_objective m Lp.Maximize [ (1., x) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "x at ub" 2. r.Simplex.x.(0)

let test_contradictory_zero_row () =
  (* 0 <= -1 is infeasible.  Lp.add_constr now rejects such a row at
     construction time, so feed the simplex a hand-built standard form to
     keep exercising its robustness to empty rows. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:2. () in
  (match Lp.add_constr m [ (1., x); (-1., x) ] Lp.Le (-1.) with
   | () -> Alcotest.fail "add_constr accepted 0 <= -1"
   | exception Invalid_argument _ -> ());
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let std = Lp.standardize m in
  let std =
    { std with
      Lp.nrows = 1;
      row_idx = [| [||] |];
      row_val = [| [||] |];
      rhs = [| -1. |];
      row_cmp = [| Lp.Le |];
    }
  in
  let r = Simplex.solve std in
  check_status "status" Simplex.Infeasible r

let test_wide_coefficient_range () =
  (* coefficients spanning 8 orders of magnitude *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:1e6 () and y = Lp.add_var m ~ub:1e6 () in
  Lp.add_constr m [ (1e-4, x); (1., y) ] Lp.Le 10.;
  Lp.add_constr m [ (1., x); (1e4, y) ] Lp.Le 20000.;
  Lp.set_objective m Lp.Maximize [ (1., x); (1., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check bool) "feasible" true
    (Lp.check_feasible ~tol:1e-2 (Lp.standardize m) r.Simplex.x)

let test_fixed_variables () =
  (* lb = ub variables must be honored, not pivoted *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:2. ~ub:2. () and y = Lp.add_var m ~ub:10. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 5.;
  Lp.set_objective m Lp.Maximize [ (1., x); (1., y) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "x fixed" 2. r.Simplex.x.(0);
  Alcotest.(check (float 1e-6)) "y fills the rest" 3. r.Simplex.x.(1)

let test_many_equalities () =
  (* chain x_i = x_{i+1}, all equal, bounded sum *)
  let m = Lp.create () in
  let n = 30 in
  let vars = Array.init n (fun _ -> Lp.add_var m ~ub:10. ()) in
  for i = 0 to n - 2 do
    Lp.add_constr m [ (1., vars.(i)); (-1., vars.(i + 1)) ] Lp.Eq 0.
  done;
  Lp.add_constr m (Array.to_list (Array.map (fun v -> (1., v)) vars)) Lp.Le 15.;
  Lp.set_objective m Lp.Maximize [ (1., vars.(0)) ];
  let r = solve_model m in
  check_status "status" Simplex.Optimal r;
  Alcotest.(check (float 1e-6)) "all equal at 0.5" 0.5 r.Simplex.x.(0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

type rand_lp = {
  nv : int;
  ubs : float list;
  rows : (float list * float) list;  (* nonneg coefs, nonneg rhs: 0 feasible *)
  costs : float list;
}

let gen_rand_lp =
  let open QCheck2.Gen in
  let* nv = int_range 1 6 in
  let* nr = int_range 1 6 in
  let* ubs = list_size (return nv) (float_range 0.5 8.) in
  let* costs = list_size (return nv) (float_range (-10.) 10.) in
  let* rows =
    list_size (return nr)
      (pair (list_size (return nv) (float_range 0. 4.)) (float_range 0.5 20.))
  in
  return { nv; ubs; rows; costs }

let build_rand_lp r =
  let m = Lp.create () in
  let vars = List.map (fun ub -> Lp.add_var m ~ub ()) r.ubs in
  List.iter
    (fun (coefs, rhs) ->
       Lp.add_constr m (List.map2 (fun c v -> (c, v)) coefs vars) Lp.Le rhs)
    r.rows;
  Lp.set_objective m Lp.Minimize (List.map2 (fun c v -> (c, v)) r.costs vars);
  m

(* Scale a random box point toward the origin until all rows hold; with
   nonnegative coefficients and rhs this always succeeds, producing a
   feasible comparison point. *)
let random_feasible_point st r =
  let pt =
    List.map (fun ub -> QCheck2.Gen.generate1 ~rand:st (QCheck2.Gen.float_range 0. ub)) r.ubs
  in
  let worst =
    List.fold_left
      (fun acc (coefs, rhs) ->
         let lhs = List.fold_left2 (fun s c x -> s +. (c *. x)) 0. coefs pt in
         if lhs > rhs then Float.max acc (lhs /. rhs) else acc)
      1. r.rows
  in
  List.map (fun x -> x /. worst) pt

let prop_feasible_and_dominates =
  QCheck2.Test.make ~count:300 ~name:"simplex: optimal is feasible and below sampled points"
    gen_rand_lp
    (fun r ->
       let m = build_rand_lp r in
       let std = Lp.standardize m in
       let res = Simplex.solve std in
       match res.Simplex.status with
       | Simplex.Optimal ->
         let feas = Lp.check_feasible ~tol:1e-5 std res.Simplex.x in
         let st = Random.State.make [| 42 |] in
         let dominated = ref true in
         for _ = 1 to 20 do
           let pt = random_feasible_point st r in
           let obj =
             List.fold_left2 (fun s c x -> s +. (c *. x)) 0. r.costs pt
           in
           if res.Simplex.obj > obj +. 1e-5 *. (1. +. Float.abs obj) then
             dominated := false
         done;
         feas && !dominated
       | _ -> false (* these instances are always feasible and bounded *))

let prop_complementary_slackness =
  QCheck2.Test.make ~count:200
    ~name:"simplex: complementary slackness at optimum" gen_rand_lp
    (fun r ->
       let m = build_rand_lp r in
       let std = Lp.standardize m in
       let t = Simplex.create std in
       match Simplex.reoptimize t with
       | Simplex.Optimal ->
         let d = Simplex.reduced_costs t in
         let x = Simplex.primal t in
         let ok = ref true in
         Array.iteri
           (fun j dj ->
              let tol = 1e-5 *. (1. +. Float.abs dj) in
              let at_lb = x.(j) <= std.Lp.lb.(j) +. 1e-6 in
              let at_ub = x.(j) >= std.Lp.ub.(j) -. 1e-6 in
              if (not at_lb) && not at_ub then begin
                (* interior variable: zero reduced cost *)
                if Float.abs dj > tol then ok := false
              end
              else begin
                if at_lb && (not at_ub) && dj < -.tol then ok := false;
                if at_ub && (not at_lb) && dj > tol then ok := false
              end)
           d;
         (* weak duality sanity: dual objective y·b + bound terms equals
            the primal objective at a basic optimal point; check the
            looser statement that y has one entry per row *)
         Array.length (Simplex.duals t) = std.Lp.nrows && !ok
       | _ -> false)

(* ------------------------------------------------------------------ *)
(* Sparse LU kernel vs dense reference                                 *)
(* ------------------------------------------------------------------ *)

(* Dense Gaussian elimination with partial pivoting; None on singular. *)
let dense_solve a b =
  let m = Array.length a in
  let a = Array.map Array.copy a and x = Array.copy b in
  let ok = ref true in
  for k = 0 to m - 1 do
    let piv = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!piv).(k) then piv := i
    done;
    if Float.abs a.(!piv).(k) < 1e-9 then ok := false
    else begin
      let tmp = a.(k) in
      a.(k) <- a.(!piv);
      a.(!piv) <- tmp;
      let tb = x.(k) in
      x.(k) <- x.(!piv);
      x.(!piv) <- tb;
      for i = k + 1 to m - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        if f <> 0. then begin
          for j = k to m - 1 do
            a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
          done;
          x.(i) <- x.(i) -. (f *. x.(k))
        end
      done
    end
  done;
  if not !ok then None
  else begin
    for k = m - 1 downto 0 do
      let acc = ref x.(k) in
      for j = k + 1 to m - 1 do
        acc := !acc -. (a.(k).(j) *. x.(j))
      done;
      x.(k) <- !acc /. a.(k).(k)
    done;
    Some x
  end

let transpose a =
  let m = Array.length a in
  Array.init m (fun i -> Array.init m (fun j -> a.(j).(i)))

let sparse_cols_of_dense a =
  let m = Array.length a in
  let idx = Array.make m [||] and va = Array.make m [||] in
  for j = 0 to m - 1 do
    let rows = ref [] in
    for i = m - 1 downto 0 do
      if a.(i).(j) <> 0. then rows := (i, a.(i).(j)) :: !rows
    done;
    idx.(j) <- Array.of_list (List.map fst !rows);
    va.(j) <- Array.of_list (List.map snd !rows)
  done;
  (idx, va)

(* Random sparse square matrix shaped like a simplex basis, m <= 60,
   with its columns shuffled.  Most columns are unit columns (slacks).
   The others carry a dominant diagonal, a sprinkle of off-diagonal
   entries, a cyclic subdiagonal and an overlapping dense block over
   structural rows and columns: no pivot order eliminates a cycle
   without fill.  Three structural columns are replaced by a 2×2 block
   plus a column over the same two rows, so a column singleton is
   pivoted on a row whose other entries an earlier elimination step
   updated.  One matrix in four drops the diagonal of some structural
   columns, so off-diagonal entries must serve as pivots, and,
   independently, one in four repeats a structural column, so singular
   and near-singular cases are exercised too. *)
let gen_sparse_matrix =
  let open QCheck2.Gen in
  let* m = int_range 1 60 in
  let* kind = array_size (return m) (int_range 0 9) in
  let* holes = int_range 0 3 in
  let* dup = int_range 0 3 in
  let* diag = array_size (return m) (float_range (-4.) 4.) in
  let* off =
    list_size
      (int_range 0 (2 * m))
      (triple (int_range 0 (m - 1)) (int_range 0 (m - 1))
         (float_range (-2.) 2.))
  in
  let* shift = int_range 1 7 in
  let* block = array_size (return 64) (float_range (-2.) 2.) in
  let* cycle = array_size (return m) (float_range (-2.) 2.) in
  let* order = shuffle_l (List.init m Fun.id) in
  (* kind < 6: unit column; 9: no diagonal when [holes = 0] *)
  let structural j = kind.(j) >= 6 in
  let a = Array.make_matrix m m 0. in
  for j = 0 to m - 1 do
    if not (structural j) then a.(j).(j) <- 1.
    else if kind.(j) < 9 || holes > 0 then
      a.(j).(j) <- (if Float.abs diag.(j) < 0.2 then 1. else diag.(j))
  done;
  List.iter (fun (i, j, v) -> if i <> j && structural j then a.(i).(j) <- v) off;
  let s = Array.of_list (List.filter structural (List.init m Fun.id)) in
  let ns = Array.length s in
  for q = 0 to ns - 1 do
    let i = s.((q + 1) mod ns) and j = s.(q) in
    if i <> j then a.(i).(j) <- cycle.(q)
  done;
  let b = min 8 ns in
  for p = 0 to b - 1 do
    for q = 0 to b - 1 do
      let i = s.(p) and j = s.((q + shift) mod ns) in
      if i <> j then a.(i).(j) <- block.((8 * p) + q)
    done
  done;
  if ns >= 5 then begin
    let ca = s.(ns - 1) and cb = s.(ns - 2) and cc = s.(ns - 3) in
    for i = 0 to m - 1 do
      a.(i).(ca) <- 0.;
      a.(i).(cb) <- 0.;
      a.(i).(cc) <- 0.
    done;
    a.(ca).(ca) <- 1.5;
    a.(cb).(ca) <- block.(0) +. 3.;
    a.(ca).(cb) <- block.(1) -. 3.;
    a.(cb).(cb) <- 2.5;
    a.(ca).(cc) <- block.(2);
    a.(cb).(cc) <- block.(3);
    a.(cc).(cc) <- 1.
  end;
  if dup = 0 && ns >= 2 then
    for i = 0 to m - 1 do
      a.(i).(s.(1)) <- a.(i).(s.(0))
    done;
  let order = Array.of_list order in
  return (Array.map (fun row -> Array.map (fun j -> row.(j)) order) a)

(* The factors of columns [basis] of [idx]/[va], written into [into]
   (fresh storage by default); [None] when singular. *)
let factor ?(into = Sparse_lu.identity 0) idx va basis =
  if Sparse_lu.refactor into idx va basis then Some into else None

let factor_dense a =
  let idx, va = sparse_cols_of_dense a in
  factor idx va (Array.init (Array.length a) Fun.id)

(* Solve in place with the full pattern listed; returns the solution. *)
let solve_full solve lu b =
  let m = Array.length b in
  let x = Vec.of_array b in
  ignore (solve lu x (Array.init m Fun.id) m);
  Vec.to_array x

(* ‖a x − b‖∞ <= 1e-9 (‖a‖∞ ‖x‖∞ + ‖b‖∞): [x] solves a x = b as well
   as its data allow, whatever the conditioning of [a]. *)
let small_backward_error a x b =
  let m = Array.length a in
  let norm v = Array.fold_left (fun acc e -> Float.max acc (Float.abs e)) 0. v in
  let anorm =
    norm
      (Array.map (fun row -> Array.fold_left (fun s e -> s +. Float.abs e) 0. row) a)
  in
  let r =
    Array.init m (fun i ->
        let acc = ref (-.b.(i)) in
        for j = 0 to m - 1 do
          acc := !acc +. (a.(i).(j) *. x.(j))
        done;
        !acc)
  in
  norm r <= 1e-9 *. ((anorm *. norm x) +. norm b)

let prop_sparse_lu_matches_dense =
  QCheck2.Test.make ~count:1000
    ~name:
      "sparse LU: ftran/btran agree with dense elimination on solvability, \
       backward error <= 1e-9"
    gen_sparse_matrix
    (fun a ->
       let m = Array.length a in
       let b = Array.init m (fun i -> Float.of_int ((i mod 5) - 2) +. 0.25) in
       match (factor_dense a, dense_solve a b) with
       | None, None -> true
       | None, Some _ ->
         (* the sparse kernel may reject near-singular bases the dense
            reference tolerates; never the other way around *)
         true
       | Some _, None -> false
       | Some lu, Some _ ->
         Sparse_lu.nnz lu >= m
         && small_backward_error a (solve_full Sparse_lu.ftran lu b) b
         && small_backward_error (transpose a)
              (solve_full Sparse_lu.btran lu b) b)

(* A right-hand side with k of its m positions listed, some listed
   positions holding zeros, the others all zero. *)
let gen_sparse_rhs m =
  let open QCheck2.Gen in
  let* listed = shuffle_l (List.init m Fun.id) in
  let* k = int_range 1 m in
  let* values =
    array_size (return k)
      (frequency [ (1, return 0.); (4, float_range (-3.) 3.) ])
  in
  return (Array.of_list (List.filteri (fun e _ -> e < k) listed), values)

(* Zero-sign-blind bits: a solve may give -0 where another gives +0. *)
let bits x = if x = 0. then 0L else Int64.bits_of_float x

(* A solve given only the listed positions of its right-hand side gives
   the bits the same solve gives with every position listed, but for the
   sign of a zero, and returns exactly the positions of its nonzeros. *)
let prop_sparse_lu_list_solve =
  QCheck2.Test.make ~count:500
    ~name:"sparse LU: a listed right-hand side solves as the full pattern does"
    QCheck2.Gen.(
      let* a = gen_sparse_matrix in
      let* rhs = gen_sparse_rhs (Array.length a) in
      return (a, rhs))
    (fun (a, (listed, values)) ->
       let m = Array.length a in
       match factor_dense a with
       | None -> true
       | Some lu ->
         let b = Array.make m 0. in
         Array.iteri (fun e i -> b.(i) <- values.(e)) listed;
         let agrees solve =
           let x = Vec.of_array b and nz = Array.make m (-1) in
           Array.blit listed 0 nz 0 (Array.length listed);
           let k = solve lu x nz (Array.length listed) in
           let full = solve_full solve lu b in
           let returned = List.sort compare (Array.to_list (Array.sub nz 0 k)) in
           let nonzero =
             List.filter (fun i -> x.{i} <> 0.) (List.init m Fun.id)
           in
           returned = nonzero
           && Array.for_all2 (fun u v -> bits u = bits v) (Vec.to_array x) full
         in
         agrees Sparse_lu.ftran && agrees Sparse_lu.btran)

(* The LU working storage carries nothing from one factorization or
   solve to the next: factoring and solving right after a differently
   shaped basis gives ftran/btran results bit-identical to factoring on
   a new domain (which starts with fresh storage), and they stay so
   after more factorizations on the same domain (the factors alias no
   shared storage).  Factoring in the arrays of an earlier
   factorization ([~reuse]) gives the same bits too. *)
let prop_sparse_lu_reused_storage =
  QCheck2.Test.make ~count:300
    ~name:"sparse LU: reused working storage is bit-identical to fresh"
    QCheck2.Gen.(pair gen_sparse_matrix gen_sparse_matrix)
    (fun (dirty, a) ->
       let solves lu =
         let m = Sparse_lu.size lu in
         let b = Array.init m (fun i -> Float.of_int ((i mod 7) - 3) +. 0.5) in
         let unit = Array.init m (fun i -> if i = m / 2 then 1. else 0.) in
         let sparse solve =
           let x = Vec.of_array unit and nz = Array.make m 0 in
           nz.(0) <- m / 2;
           let k = solve lu x nz 1 in
           (Array.sub nz 0 k, Array.map Int64.bits_of_float (Vec.to_array x))
         in
         let full solve = Array.map Int64.bits_of_float (solve_full solve lu b) in
         ( Sparse_lu.nnz lu,
           full Sparse_lu.ftran,
           full Sparse_lu.btran,
           sparse Sparse_lu.ftran,
           sparse Sparse_lu.btran )
       in
       let dirty_solves () = ignore (Option.map solves (factor_dense dirty)) in
       dirty_solves ();
       let reused = Option.map solves (factor_dense a) in
       let kept = factor_dense a in
       dirty_solves ();
       let kept = Option.map solves kept in
       (* factored in the arrays of another factorization of a's size *)
       let over =
         let idx, va = sparse_cols_of_dense a in
         let m = Array.length a in
         let reuse =
           match factor_dense (transpose a) with
           | Some lu -> lu
           | None -> Sparse_lu.identity m
         in
         Option.map solves (factor ~into:reuse idx va (Array.init m Fun.id))
       in
       let fresh =
         Domain.join
           (Domain.spawn (fun () -> Option.map solves (factor_dense a)))
       in
       reused = fresh && kept = fresh && over = fresh)

(* The same for a whole simplex solve: a model solved on a domain right
   after a differently sized one pivots exactly as on a new domain. *)
let prop_solve_after_other_model =
  QCheck2.Test.make ~count:150
    ~name:"simplex: a solve after another model's is bit-identical to fresh"
    QCheck2.Gen.(pair gen_rand_lp gen_rand_lp)
    (fun (r_dirty, r) ->
       let run () =
         let t = Simplex.create (Lp.standardize (build_rand_lp r)) in
         let st = Simplex.reoptimize t in
         ( st,
           Simplex.iterations t,
           Int64.bits_of_float (Simplex.objective t),
           Array.map bits (Simplex.primal t) )
       in
       ignore (Simplex.solve (Lp.standardize (build_rand_lp r_dirty)));
       let after = run () in
       let fresh = Domain.join (Domain.spawn run) in
       after = fresh)

(* ------------------------------------------------------------------ *)
(* Forrest-Tomlin updates                                              *)
(* ------------------------------------------------------------------ *)

(* A basis from [gen_sparse_matrix], then entering columns: slack (unit)
   columns, sparse structural ones, and half-dense ones that fill in U;
   each with a flag saying whether the btran of the leaving row runs
   first, as in the dual simplex, so that the update uses its kept part
   rather than recomputing it. *)
let gen_update_case =
  let open QCheck2.Gen in
  let* a = gen_sparse_matrix in
  let m = Array.length a in
  let col =
    let* kind = int_range 0 5 in
    if kind = 0 then map (fun i -> [ (i, 1.) ]) (int_range 0 (m - 1))
    else
      let* len =
        if kind = 5 then int_range ((m + 1) / 2) m else int_range 1 (min m 4)
      in
      list_size (return len)
        (pair (int_range 0 (m - 1)) (float_range (-2.) 2.))
  in
  let* cols = list_size (int_range 1 (min 40 (2 * m))) (pair col bool) in
  return (a, cols)

(* Replace columns of [lu], the factors of the dense [b], which follows
   along: each entering column goes to the basis position of the largest
   entry of its ftran, and is skipped when that entry is below 1e-3.
   Returns the number of updates. *)
let run_updates lu b cols =
  let m = Array.length b in
  List.fold_left
    (fun count (col, keep_row) ->
       let dense = Array.make m 0. in
       List.iter (fun (i, v) -> dense.(i) <- dense.(i) +. v) col;
       let w = Vec.of_array dense in
       let rows = List.sort_uniq compare (List.map fst col) in
       let nz = Array.make m 0 in
       List.iteri (fun e i -> nz.(e) <- i) rows;
       let k = Sparse_lu.ftran ~keep:true lu w nz (List.length rows) in
       let p = ref (-1) in
       for e = 0 to k - 1 do
         if !p < 0 || Float.abs w.{nz.(e)} > Float.abs w.{!p} then p := nz.(e)
       done;
       if !p < 0 || Float.abs w.{!p} < 1e-3 then count
       else begin
         let p = !p in
         if keep_row then begin
           let u = Vec.create m and unz = Array.make m 0 in
           u.{p} <- 1.;
           unz.(0) <- p;
           ignore (Sparse_lu.btran ~keep:true lu u unz 1)
         end;
         ignore (Sparse_lu.replace lu p w.{p});
         Array.iteri (fun i v -> b.(i).(p) <- v) dense;
         count + 1
       end)
    0 cols

(* After the updates, ftran and btran solve the explicitly assembled
   basis with backward error <= 1e-9, and a unit right-hand side listed
   alone solves as with every position listed. *)
let prop_sparse_lu_updates =
  QCheck2.Test.make ~count:500
    ~name:
      "sparse LU: ftran/btran after column replacements, backward error \
       <= 1e-9"
    gen_update_case
    (fun (a, cols) ->
       match factor_dense a with
       | None -> true
       | Some lu ->
         let m = Array.length a in
         let b = Array.map Array.copy a in
         let count = run_updates lu b cols in
         let rhs = Array.init m (fun i -> Float.of_int ((i mod 5) - 2) +. 0.25) in
         let unit_agrees solve =
           let x = Vec.create m and nz = Array.make m 0 in
           x.{m / 2} <- 1.;
           nz.(0) <- m / 2;
           ignore (solve lu x nz 1);
           let full =
             solve_full solve lu (Array.init m (fun i -> if i = m / 2 then 1. else 0.))
           in
           Array.for_all2 (fun u v -> bits u = bits v) (Vec.to_array x) full
         in
         Sparse_lu.updates lu = count
         && small_backward_error b (solve_full Sparse_lu.ftran lu rhs) rhs
         && small_backward_error (transpose b)
              (solve_full Sparse_lu.btran lu rhs) rhs
         && unit_agrees Sparse_lu.ftran && unit_agrees Sparse_lu.btran)

(* The bits of a full ftran and btran, and of a unit one of each. *)
let solve_bits lu =
  let m = Sparse_lu.size lu in
  let b = Array.init m (fun i -> Float.of_int ((i mod 7) - 3) +. 0.5) in
  let unit solve =
    let x = Vec.create m and nz = Array.make m 0 in
    x.{0} <- 1.;
    let k = solve lu x nz 1 in
    (List.sort compare (Array.to_list (Array.sub nz 0 k)),
     Array.map bits (Vec.to_array x))
  in
  ( Array.map bits (solve_full Sparse_lu.ftran lu b),
    Array.map bits (solve_full Sparse_lu.btran lu b),
    unit Sparse_lu.ftran,
    unit Sparse_lu.btran )

(* A copy taken while the factors carry updates shares nothing with the
   original: the original's later updates and its refactorization leave
   the copy solving exactly as a twin driven through the same updates,
   and the copy then takes the same later updates as the twin does. *)
let prop_sparse_lu_copy_mid_update =
  QCheck2.Test.make ~count:300
    ~name:
      "sparse LU: a copy taken mid-update is unchanged by the original's \
       later updates and refactorizations"
    gen_update_case
    (fun (a, cols) ->
       let half = List.length cols / 2 in
       let before = List.filteri (fun e _ -> e < half) cols
       and after = List.filteri (fun e _ -> e >= half) cols in
       match (factor_dense a, factor_dense a) with
       | Some original, Some twin ->
         let b = Array.map Array.copy a and b_twin = Array.map Array.copy a in
         ignore (run_updates original b before);
         ignore (run_updates twin b_twin before);
         let copy = Sparse_lu.copy original in
         let b_copy = Array.map Array.copy b in
         ignore (run_updates original b after);
         let idx, va = sparse_cols_of_dense (transpose a) in
         ignore
           (Sparse_lu.refactor original idx va (Array.init (Array.length a) Fun.id));
         let unchanged = solve_bits copy = solve_bits twin in
         ignore (run_updates copy b_copy after);
         ignore (run_updates twin b_twin after);
         unchanged && solve_bits copy = solve_bits twin
       | _ -> true)

let test_sparse_lu_singular () =
  (* structurally singular: a duplicated column *)
  let idx = [| [| 0; 1 |]; [| 0; 1 |]; [| 2 |] |] in
  let va = [| [| 1.; 2. |]; [| 1.; 2. |]; [| 3. |] |] in
  (match factor idx va [| 0; 1; 2 |] with
   | None -> ()
   | Some _ -> Alcotest.fail "factor accepted a rank-deficient matrix");
  (* numerically singular: entries below the absolute pivot tolerance *)
  let idx = [| [| 0 |]; [| 1 |] |] in
  let va = [| [| 1e-14 |]; [| 1. |] |] in
  match factor idx va [| 0; 1 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "factor accepted a numerically singular matrix"

(* An update at a column whose pivot is huge: z = U^-T e_k is all below
   the solves' drop tolerance (z_k = 1/u_kk), yet the row eta holds the
   ratios -z_j / z_k, of order 1, on a row as large as the pivot.
   B = [[1e15, 1e15], [0, 1e15]], column 0 replaced by (2e15, 1e15): the
   pivot element is 1, and without the row eta both the pivot recomputed
   along the row (2) and the solves are off.  (The solves' own results
   are of order 1: entries of at most 1e-14 in a result are dropped.) *)
let test_sparse_lu_update_huge_pivot () =
  let idx = [| [| 0 |]; [| 0; 1 |] |]
  and va = [| [| 1e15 |]; [| 1e15; 1e15 |] |] in
  match factor idx va [| 0; 1 |] with
  | None -> Alcotest.fail "factor rejected a nonsingular basis"
  | Some lu ->
    let w = Vec.of_array [| 2e15; 1e15 |] in
    ignore (Sparse_lu.ftran ~keep:true lu w [| 0; 1 |] 2);
    let u = Vec.of_array [| 1.; 0. |] in
    ignore (Sparse_lu.btran ~keep:true lu u [| 0; 0 |] 1);
    if not (Sparse_lu.replace lu 0 w.{0}) then
      Alcotest.fail "the update reported a loss of accuracy";
    (* right-hand sides whose solution is (1, 2) *)
    let b = [| [| 2e15; 1e15 |]; [| 1e15; 1e15 |] |] in
    if
      not
        (small_backward_error b
           (solve_full Sparse_lu.ftran lu [| 4e15; 3e15 |])
           [| 4e15; 3e15 |]
        && small_backward_error (transpose b)
             (solve_full Sparse_lu.btran lu [| 3e15; 3e15 |])
             [| 3e15; 3e15 |])
    then Alcotest.fail "the solves after the update miss the updated basis"

let test_sparse_lu_identity () =
  let lu = Sparse_lu.identity 4 in
  let b = [| 1.; -2.; 3.; 0.5 |] in
  Alcotest.(check (array (float 0.))) "ftran id" b
    (solve_full Sparse_lu.ftran lu b);
  Alcotest.(check (array (float 0.))) "btran id" b
    (solve_full Sparse_lu.btran lu b);
  let x = Vec.of_array [| 0.; 0.; 7.; 0. |] and nz = [| 2; 0; 0; 0 |] in
  Alcotest.(check int) "one nonzero" 1 (Sparse_lu.ftran lu x nz 1);
  Alcotest.(check int) "at 2" 2 nz.(0);
  Alcotest.(check int) "nnz" 4 (Sparse_lu.nnz lu);
  Alcotest.(check int) "size" 4 (Sparse_lu.size lu)

let prop_zero_objective =
  QCheck2.Test.make ~count:100 ~name:"simplex: zero cost yields zero objective"
    gen_rand_lp
    (fun r ->
       let m = build_rand_lp r in
       Lp.set_objective m Lp.Minimize [];
       let res = Simplex.solve (Lp.standardize m) in
       res.Simplex.status = Simplex.Optimal && Float.abs res.Simplex.obj < 1e-9)

(* ------------------------------------------------------------------ *)
(* Independent certification of random LP solves                       *)
(* ------------------------------------------------------------------ *)

(* Every random LP solved through the branch-and-bound front end must
   certify: the float certifier re-derives primal feasibility, the dual
   bound and complementary slackness with no Error finding, and the exact
   rational audit refutes no claim.  Neither oracle shares code with the
   simplex, so a wrong pivot, a stale factorization or a bad dual shows up
   here whatever path the solve took. *)
let prop_random_lp_certifies =
  QCheck2.Test.make ~count:200
    ~name:"simplex: random LP solves certify in float and exact arithmetic"
    gen_rand_lp
    (fun r ->
       let m = build_rand_lp r in
       let outcome, stats = Mip.solve m in
       let float_errors =
         Vpart_analysis.Diagnostic.count Vpart_analysis.Diagnostic.Error
           (Vpart_certify.Certify.certify_mip m outcome stats)
       in
       let _, _, refuted, _ =
         Vpart_certify.Certify.Exact.counts
           (Vpart_certify.Certify.Exact.audit m outcome stats)
       in
       (match outcome with Mip.Optimal _ -> true | _ -> false)
       && float_errors = 0 && refuted = 0)

(* Pooled-vs-fresh bit-identity: a solve whose float storage and factor
   storage come from a reused {!Simplex.Workspace} must reproduce the
   fresh-allocation solve exactly — same status, pivot and update
   counts, objective bits and primal point bits — even when the arena is
   dirty from a previous, differently shaped solve whose pivots left the
   factors updated and grown.  This is the guard that lets the batch
   service pool solver state without changing any result. *)
let prop_pooled_equals_fresh =
  QCheck2.Test.make ~count:150
    ~name:"simplex: workspace-pooled solve is bit-identical to fresh"
    QCheck2.Gen.(pair gen_rand_lp gen_rand_lp)
    (fun (r_dirty, r) ->
       let ws = Simplex.Workspace.create () in
       (* Dirty the arena with an unrelated solve so the pooled run below
          starts from stale garbage that create must re-zero. *)
       let t0 =
         Simplex.create ~workspace:ws (Lp.standardize (build_rand_lp r_dirty))
       in
       ignore (Simplex.reoptimize t0);
       (* halve every box and pivot on: more updates of the factors *)
       List.iteri
         (fun j ub -> Simplex.set_bounds t0 j ~lb:0. ~ub:(ub /. 2.))
         r_dirty.ubs;
       ignore (Simplex.reoptimize t0);
       let run workspace =
         let t = Simplex.create ?workspace (Lp.standardize (build_rand_lp r)) in
         let st = Simplex.reoptimize t in
         ( st,
           Simplex.iterations t,
           Simplex.lu_updates t,
           Int64.bits_of_float (Simplex.objective t),
           Array.map Int64.bits_of_float (Simplex.primal t) )
       in
       let pooled = run (Some ws) in
       let fresh = run None in
       pooled = fresh)

(* A copy shares no mutable state with its original: not the factors,
   which every pivot updates in place, nor the working storage.  So the
   original's bound changes, basis updates and refactorizations must
   leave the copy exactly as a copy of an untouched twin: same status,
   pivot count, objective bits and primal point bits when both copies
   are reoptimized.  Branch-and-bound worker domains rely on this. *)
let prop_copy_survives_original =
  (* A case the bound changes cannot drive through two refactorizations
     is discarded; more than half discarded fails the test. *)
  QCheck2.Test.make ~count:150 ~if_assumptions_fail:(`Fatal, 0.5)
    ~name:"simplex: a copy is unaffected by the original's refactorizations"
    QCheck2.Gen.(pair gen_rand_lp (int_range 0 1_000_000))
    (fun (r, seed) ->
       let solved () =
         let t = Simplex.create (Lp.standardize (build_rand_lp r)) in
         ignore (Simplex.reoptimize t);
         t
       in
       let original = solved () and twin = solved () in
       let copy = Simplex.copy original and reference = Simplex.copy twin in
       (* Drive the original with random boxes (fixings at 0 or at a
          quarter of the box, halvings of the current value,
          restorations): its pivots update the factors until they have
          grown into a refactorization, twice. *)
       let st = Random.State.make [| seed |] in
       let refacs0 = Simplex.refactorizations original in
       let rounds = ref 0 in
       while Simplex.refactorizations original < refacs0 + 2 && !rounds < 400 do
         incr rounds;
         List.iteri
           (fun j ub ->
              let lb, ub =
                match Random.State.int st 4 with
                | 0 -> (0., 0.)
                | 1 -> (0., Float.max 0. (Simplex.primal_value original j /. 2.))
                | 2 -> (ub /. 4., ub /. 4.)
                | _ -> (0., ub)
              in
              Simplex.set_bounds original j ~lb ~ub)
           r.ubs;
         ignore (Simplex.reoptimize original)
       done;
       QCheck2.assume (Simplex.refactorizations original >= refacs0 + 2);
       let run t =
         let st = Simplex.reoptimize t in
         ( st,
           Simplex.iterations t,
           Int64.bits_of_float (Simplex.objective t),
           Array.map Int64.bits_of_float (Simplex.primal t) )
       in
       run copy = run reference)

(* ------------------------------------------------------------------ *)
(* Bound flipping and the cutoff                                       *)
(* ------------------------------------------------------------------ *)

(* One >= row over four columns with unit coefficients, three of them
   boxed in [0, 1] with costs 1, 2, 3 and the fourth in [0, 10] with cost
   10.  The start (every column at its lower bound) leaves the row short
   by 3.5.  The textbook ratio test would enter x1, whose box cannot
   absorb the shortfall, and pivot again; the bound-flipping test passes
   the breakpoints of x1, x2 and x3 (each costs 1 of the 3.5 slope) and
   enters x4 in one pivot. *)
let test_bound_flips () =
  let m = Lp.create () in
  let x = Array.init 4 (fun k -> Lp.add_var m ~ub:(if k < 3 then 1. else 10.) ()) in
  Lp.add_constr m (Array.to_list (Array.map (fun v -> (1., v)) x)) Lp.Ge 3.5;
  Lp.set_objective m Lp.Minimize
    [ (1., x.(0)); (2., x.(1)); (3., x.(2)); (10., x.(3)) ];
  let t = Simplex.create (Lp.standardize m) in
  Alcotest.(check string) "status" "optimal"
    (Simplex.string_of_status (Simplex.reoptimize t));
  Alcotest.(check (float 1e-9)) "objective" 11. (Simplex.objective t);
  Alcotest.(check (float 1e-9)) "x4" 0.5 (Simplex.primal_value t 3);
  Alcotest.(check (float 0.)) "bound flips" 3.
    (List.assoc "simplex.bound_flips" (Simplex.pivot_counters t));
  (* one pivot, then the pass that finds the point primal feasible *)
  Alcotest.(check int) "iterations" 2 (Simplex.iterations t)

(* Boxed LPs with rows of every sense and coefficients of both signs.
   One >= row in six asks for more than its maximum over the box, so
   about a fifth of the LPs are infeasible. *)
type boxed_lp = {
  lbs : float list;
  widths : float list;
  brows : (float list * Lp.cmp * float) list;
  bcosts : float list;
}

let gen_boxed_lp =
  let open QCheck2.Gen in
  let* nv = int_range 1 6 in
  let* nr = int_range 1 6 in
  let* lbs = list_size (return nv) (oneof [ return 0.; float_range (-3.) 0. ]) in
  let* widths = list_size (return nv) (float_range 0.5 8.) in
  let* bcosts = list_size (return nv) (float_range (-10.) 10.) in
  let* point = list_size (return nv) (float_range 0. 1.) in
  let box_point =
    List.map2 (fun (l, w) t -> l +. (w *. t)) (List.combine lbs widths) point
  in
  let at_point coefs =
    List.fold_left2 (fun acc c x -> acc +. (c *. x)) 0. coefs box_point
  in
  let gen_row =
    let* coefs =
      list_size (return nv) (oneof [ return 0.; float_range (-4.) 4. ])
    in
    (* Lp refuses an empty row *)
    let coefs = if List.for_all (( = ) 0.) coefs then 1. :: List.tl coefs else coefs in
    let* cmp = oneofl [ Lp.Le; Lp.Le; Lp.Ge; Lp.Ge; Lp.Eq ] in
    let* slack = float_range 0. 3. in
    let* infeasible = map (fun k -> k = 0) (int_range 0 5) in
    let act = at_point coefs in
    let hi =
      List.fold_left2
        (fun acc c (l, w) -> acc +. Float.max (c *. l) (c *. (l +. w)))
        0. coefs (List.combine lbs widths)
    in
    return
      (match cmp with
       | Lp.Ge when infeasible -> (coefs, cmp, hi +. 1. +. slack)
       | Lp.Le -> (coefs, cmp, act +. slack)
       | Lp.Ge -> (coefs, cmp, act -. slack)
       | Lp.Eq -> (coefs, cmp, act))
  in
  let* brows = list_size (return nr) gen_row in
  return { lbs; widths; brows; bcosts }

let build_boxed_lp r =
  let m = Lp.create () in
  let vars =
    List.map2 (fun lb w -> Lp.add_var m ~lb ~ub:(lb +. w) ()) r.lbs r.widths
  in
  List.iter
    (fun (coefs, cmp, rhs) ->
       Lp.add_constr m (List.map2 (fun c v -> (c, v)) coefs vars) cmp rhs)
    r.brows;
  Lp.set_objective m Lp.Minimize (List.map2 (fun c v -> (c, v)) r.bcosts vars);
  m

(* The cutoff only ever gives the full solve's verdict sooner.  For a
   cutoff drawn around the LP optimum: Cutoff implies the LP is
   infeasible or its optimum reaches the cutoff (to 1e-7 relative), with
   a verified bound at least the cutoff, and a plain reoptimize from the
   cut-off basis reaches the fresh optimum; any other status is the
   no-cutoff solve's, pivot for pivot. *)
let prop_cutoff_verdicts =
  QCheck2.Test.make ~count:500
    ~name:"simplex: a cutoff verdict agrees with the full solve"
    QCheck2.Gen.(pair gen_boxed_lp (float_range (-1.5) 1.5))
    (fun (r, u) ->
       let std = Lp.standardize (build_boxed_lp r) in
       let fresh = Simplex.create std in
       let fresh_st = Simplex.reoptimize fresh in
       let fresh_obj = Simplex.objective fresh in
       let cutoff =
         match fresh_st with
         | Simplex.Optimal -> fresh_obj +. (u *. (1. +. Float.abs fresh_obj))
         | _ -> 10. *. u
       in
       let t = Simplex.create std in
       match Simplex.reoptimize ~cutoff t with
       | Simplex.Cutoff ->
         let verified =
           match Simplex.cutoff_bound t with Some b -> b >= cutoff | None -> false
         in
         let sound =
           match fresh_st with
           | Simplex.Infeasible -> true
           | Simplex.Optimal ->
             fresh_obj >= cutoff -. (1e-7 *. (1. +. Float.abs cutoff))
           | _ -> false
         in
         let st = Simplex.reoptimize t in
         let resumed =
           st = fresh_st
           && (st <> Simplex.Optimal
               || Float.abs (Simplex.objective t -. fresh_obj)
                  <= 1e-7 *. (1. +. Float.abs fresh_obj))
         in
         if not (verified && sound && resumed) then
           QCheck2.Test.fail_reportf
             "cutoff %g: verified %b, full solve %s %g, resumed %s %g" cutoff
             verified
             (Simplex.string_of_status fresh_st)
             fresh_obj (Simplex.string_of_status st) (Simplex.objective t);
         true
       | st ->
         st = fresh_st
         && Simplex.iterations t = Simplex.iterations fresh
         && Int64.bits_of_float (Simplex.objective t)
            = Int64.bits_of_float fresh_obj)

(* A deterministic ill-scaled fixture on which the updated factors lose
   accuracy: the only way the solver can hold the basis together is the
   drift rebuild (an update's pivot check, the periodic basic-value
   resync) or the rejected-pivot recovery.  The run must (a) still reach
   the optimum of the same LP without its row factors, which the solver
   handles without trouble, and (b) actually exercise a forced rebuild,
   so the recovery path stays covered.

   The rows are D_r (I + E) x <= D_r beta / c: row factors 10^-5..10^5,
   every column scaled by c = 1e-2, and a coupling E with entries
   0.005·10^{-1,0,1} on half the positions.  The boxes are twice what a
   row allows, so the bound-flipping ratio test cannot settle the rows by
   flips: at the optimum most rows are tight, and the dual method needs a
   pivot for each.  [row_factors = false] drops D_r. *)
let build_drift_lp ~row_factors =
  let m = Lp.create () in
  let n = 300 in
  let dr i =
    if row_factors then 10. ** float_of_int (((i * 5) mod 11) - 5) else 1.
  and c = 1e-2
  and beta i = 1. +. (float_of_int (i mod 7) /. 7.) in
  let vars = Array.init n (fun j -> Lp.add_var m ~ub:(2. *. beta j /. c) ()) in
  for i = 0 to n - 1 do
    let terms = ref [ (dr i *. c, vars.(i)) ] in
    for j = 0 to n - 1 do
      if j <> i && (i + (3 * j)) mod 2 = 0 then
        terms :=
          (0.005 *. dr i *. c *. (10. ** float_of_int (((i + (2 * j)) mod 3) - 1)),
           vars.(j))
          :: !terms
    done;
    Lp.add_constr m !terms Lp.Le (dr i *. beta i)
  done;
  Lp.set_objective m Lp.Minimize
    (Array.to_list
       (Array.mapi
          (fun j v -> (-.(c *. (1. +. (float_of_int ((j * 13) mod 5) /. 5.))), v))
          vars));
  m

let test_drift_recovery () =
  let reference =
    Simplex.solve (Lp.standardize (build_drift_lp ~row_factors:false))
  in
  check_status "reference" Simplex.Optimal reference;
  let std = Lp.standardize (build_drift_lp ~row_factors:true) in
  (* Drift and recovery rebuilds are counted apart from the ones growth
     and the update ceiling schedule: each was forced by a loss of
     accuracy or a rejected pivot. *)
  let t = Simplex.create std in
  let st = Simplex.reoptimize t in
  Alcotest.(check string) "status" "optimal" (Simplex.string_of_status st);
  let rel =
    Float.abs (reference.Simplex.obj -. Simplex.objective t)
    /. (1. +. Float.abs reference.Simplex.obj)
  in
  if rel > 1e-5 then
    Alcotest.failf "objective lost to drift: %.17g vs reference %.17g"
      (Simplex.objective t) reference.Simplex.obj;
  let forced = Simplex.drift_rebuilds t + Simplex.recovery_rebuilds t in
  if forced = 0 then
    Alcotest.failf
      "fixture no longer forces a drift or recovery rebuild (%d iterations)"
      (Simplex.iterations t)

let () =
  Alcotest.run "simplex"
    [ ("classic",
       [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
         Alcotest.test_case "equality rows" `Quick test_equality_rows;
         Alcotest.test_case "ge rows" `Quick test_ge_rows;
         Alcotest.test_case "infeasible" `Quick test_infeasible;
         Alcotest.test_case "unbounded" `Quick test_unbounded;
         Alcotest.test_case "free variable" `Quick test_free_variable;
         Alcotest.test_case "upper bounds active" `Quick test_upper_bounds_active;
         Alcotest.test_case "degenerate" `Quick test_degenerate;
         Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
       ]);
      ("incremental",
       [ Alcotest.test_case "bound change warm start" `Quick
           test_incremental_bound_change;
         Alcotest.test_case "primal method" `Quick test_primal_method;
       ]);
      ("robustness",
       [ Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
         Alcotest.test_case "zero row" `Quick test_zero_row;
         Alcotest.test_case "contradictory zero row" `Quick
           test_contradictory_zero_row;
         Alcotest.test_case "wide coefficients" `Quick test_wide_coefficient_range;
         Alcotest.test_case "fixed variables" `Quick test_fixed_variables;
         Alcotest.test_case "many equalities" `Quick test_many_equalities;
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_feasible_and_dominates;
         QCheck_alcotest.to_alcotest prop_complementary_slackness;
         QCheck_alcotest.to_alcotest prop_zero_objective;
         QCheck_alcotest.to_alcotest prop_pooled_equals_fresh;
         QCheck_alcotest.to_alcotest prop_copy_survives_original;
       ]);
      ("kernels",
       [ QCheck_alcotest.to_alcotest prop_random_lp_certifies;
         Alcotest.test_case "drift recovery (sparse)" `Quick
           test_drift_recovery;
         Alcotest.test_case "bound flips" `Quick test_bound_flips;
         QCheck_alcotest.to_alcotest prop_cutoff_verdicts;
       ]);
      ("sparse-lu",
       [ Alcotest.test_case "identity factors" `Quick test_sparse_lu_identity;
         Alcotest.test_case "singular rejection" `Quick test_sparse_lu_singular;
         Alcotest.test_case "update at a huge pivot" `Quick
           test_sparse_lu_update_huge_pivot;
         QCheck_alcotest.to_alcotest prop_sparse_lu_matches_dense;
         QCheck_alcotest.to_alcotest prop_sparse_lu_list_solve;
         QCheck_alcotest.to_alcotest prop_sparse_lu_reused_storage;
         QCheck_alcotest.to_alcotest prop_solve_after_other_model;
         QCheck_alcotest.to_alcotest prop_sparse_lu_updates;
         QCheck_alcotest.to_alcotest prop_sparse_lu_copy_mid_update;
       ]);
    ]
