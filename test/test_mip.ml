(* Tests for the branch-and-bound MIP solver. *)

let exact_limits =
  { Mip.default_limits with Mip.gap = 1e-9; time_limit = Some 30. }

let get_optimal name = function
  | Mip.Optimal sol -> sol
  | out ->
    Alcotest.failf "%s: expected optimal, got %a" name Mip.pp_outcome out

let test_binary_cover () =
  (* min x + 2y s.t. x + y >= 1.5, x,y binary -> x = y = 1, obj 3. *)
  let m = Lp.create () in
  let x = Lp.binary m () and y = Lp.binary m () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 1.5;
  Lp.set_objective m Lp.Minimize [ (1., x); (2., y) ];
  let out, _ = Mip.solve ~limits:exact_limits m in
  let sol = get_optimal "cover" out in
  Alcotest.(check (float 1e-6)) "objective" 3. sol.Mip.obj;
  Alcotest.(check (float 1e-6)) "x" 1. sol.Mip.x.(0);
  Alcotest.(check (float 1e-6)) "y" 1. sol.Mip.x.(1)

let test_knapsack_small () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 5 binary -> a + c: 17
     (b + c weighs 6 and does not fit). *)
  let m = Lp.create () in
  let a = Lp.binary m () and b = Lp.binary m () and c = Lp.binary m () in
  Lp.add_constr m [ (3., a); (4., b); (2., c) ] Lp.Le 5.;
  Lp.set_objective m Lp.Maximize [ (10., a); (13., b); (7., c) ];
  let out, _ = Mip.solve ~limits:exact_limits m in
  let sol = get_optimal "knapsack" out in
  Alcotest.(check (float 1e-6)) "objective" 17. sol.Mip.obj

let test_integer_general () =
  (* max x + y s.t. 2x + y <= 7, x + 3y <= 9, x,y integer >= 0.
     LP optimum is fractional; integer optimum 5 (e.g. x=3,y=1 -> 4? check:
     x=2,y=2: 2*2+2=6<=7, 2+6=8<=9 -> obj 4; x=3,y=1: 7<=7, 6<=9 -> 4;
     x=2,y=2 gives 4. Try x=1,y=2: 4<=7,7<=9 obj 3. x=3,y=1 obj 4.
     LP corner: 2x+y=7, x+3y=9 -> x=2.4,y=2.2 obj 4.6 -> integer best 4. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true () and y = Lp.add_var m ~integer:true () in
  Lp.add_constr m [ (2., x); (1., y) ] Lp.Le 7.;
  Lp.add_constr m [ (1., x); (3., y) ] Lp.Le 9.;
  Lp.set_objective m Lp.Maximize [ (1., x); (1., y) ];
  let out, _ = Mip.solve ~limits:exact_limits m in
  let sol = get_optimal "integer general" out in
  Alcotest.(check (float 1e-6)) "objective" 4. sol.Mip.obj

let test_infeasible () =
  let m = Lp.create () in
  let x = Lp.binary m () and y = Lp.binary m () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 3.;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let out, _ = Mip.solve ~limits:exact_limits m in
  (match out with
   | Mip.Infeasible -> ()
   | out -> Alcotest.failf "expected infeasible, got %a" Mip.pp_outcome out)

let test_pure_lp_passthrough () =
  (* No integer variables: MIP must agree with the LP optimum. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:4. () and y = Lp.add_var m ~ub:4. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 6.;
  Lp.set_objective m Lp.Maximize [ (2., x); (1., y) ];
  let out, _ = Mip.solve ~limits:exact_limits m in
  let sol = get_optimal "pure lp" out in
  Alcotest.(check (float 1e-6)) "objective" 10. sol.Mip.obj

let test_equality_assignment () =
  (* 2x2 assignment problem: min cost perfect matching. *)
  let m = Lp.create () in
  let v = Array.init 4 (fun _ -> Lp.binary m ()) in
  (* v.(0)=a->1, v.(1)=a->2, v.(2)=b->1, v.(3)=b->2 *)
  Lp.add_constr m [ (1., v.(0)); (1., v.(1)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(2)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(0)); (1., v.(2)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(1)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.set_objective m Lp.Minimize
    [ (4., v.(0)); (1., v.(1)); (2., v.(2)); (9., v.(3)) ];
  let out, _ = Mip.solve ~limits:exact_limits m in
  let sol = get_optimal "assignment" out in
  Alcotest.(check (float 1e-6)) "objective" 3. sol.Mip.obj

let test_too_large () =
  let m = Lp.create () in
  let x = Lp.binary m () in
  for _ = 1 to 10 do
    Lp.add_constr m [ (1., x) ] Lp.Le 1.
  done;
  Lp.set_objective m Lp.Minimize [ (1., x) ];
  let limits = { exact_limits with Mip.max_rows = Some 5 } in
  let out, _ = Mip.solve ~limits m in
  (match out with
   | Mip.Too_large { rows = 10; limit = 5 } -> ()
   | out -> Alcotest.failf "expected too large, got %a" Mip.pp_outcome out)

let test_heuristic_hook () =
  (* The heuristic's proposal must be vetted and used when it is optimal.
     The root is integral and the proposal closes the gap there: the root
     still counts as node 1, whatever [jobs] is. *)
  let m = Lp.create () in
  let x = Lp.binary m () and y = Lp.binary m () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 1.;
  Lp.set_objective m Lp.Minimize [ (2., x); (3., y) ];
  List.iter
    (fun jobs ->
       let called = ref false in
       let heuristic _lp_point =
         called := true;
         Some [| 1.; 0. |]
       in
       let out, stats = Mip.solve ~limits:exact_limits ~heuristic ~jobs m in
       let sol = get_optimal "heuristic" out in
       Alcotest.(check bool) "heuristic called" true !called;
       Alcotest.(check (float 1e-6)) "objective" 2. sol.Mip.obj;
       Alcotest.(check int) (Printf.sprintf "nodes (jobs %d)" jobs) 1
         stats.Mip.nodes)
    [ 1; 2 ]

let test_fractional_integer_bounds () =
  (* x integer in [0.5, 1.5]: the LP optimum x = 0.5, y = 0.2 branches on
     x, whose down child [0.5, 0] is empty.  Optimum x = 1, y = 0, at
     jobs 1 and 2. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:0.5 ~ub:1.5 ~integer:true () in
  let y = Lp.add_var m ~ub:1. () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 0.7;
  Lp.set_objective m Lp.Minimize [ (1., x); (0.5, y) ];
  List.iter
    (fun jobs ->
       let out, _ = Mip.solve ~limits:exact_limits ~jobs m in
       let sol = get_optimal "fractional bounds" out in
       Alcotest.(check (float 1e-6)) "objective" 1. sol.Mip.obj)
    [ 1; 2 ]

(* Three rows whose binaries carry coefficients from 5e-8 to 1e9, shrunk
   from a generated model.  A node LP returns a point that leaves its own
   box, so one child box of the branching variable is empty; that used to
   raise Invalid_argument from Simplex.set_bounds.  The subtree is now
   abandoned as a numerical prune.  Every feasible point has b0 = b3 = 1
   (the first and third rows need them) and the optimum is 0 (b1 = 0), so
   the answer must not claim infeasibility, and it must certify. *)
let test_point_outside_box () =
  let m = Lp.create () in
  let b = Array.init 4 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m
    [ (0x1.dbbe24ef36bcep+28, b.(0)); (0x1.d801922c2890ep-25, b.(2));
      (0x1.efa66f4d1f5b2p+11, b.(3)) ]
    Lp.Ge 0x1.78ddb38f1513ep+28;
  Lp.add_constr m
    [ (0x1.3be06f0763009p+25, b.(1)); (0x1.ce4ce856d35cep+12, b.(3)) ]
    Lp.Ge 0x1.c59022172209ep+12;
  Lp.add_constr m
    [ (0x1.0767e011506d9p-4, b.(1)); (0x1.64fb58b432933p+27, b.(2));
      (0x1.cd5d23f5c56b8p+29, b.(3)) ]
    Lp.Ge 0x1.2e49faeefa0dfp+29;
  Lp.set_objective m Lp.Minimize [ (0x1.b6f7aeb1a3bcap+9, b.(1)) ];
  let out, stats = Mip.solve ~limits:exact_limits m in
  Alcotest.(check bool) "a subtree is abandoned" true
    (stats.Mip.audit.Mip.numerical_prunes >= 1);
  (match out with
   | Mip.Infeasible -> Alcotest.fail "claims infeasibility of a feasible model"
   | Mip.Optimal sol -> Alcotest.(check (float 1e-6)) "objective" 0. sol.Mip.obj
   | _ -> ());
  let module D = Vpart_analysis.Diagnostic in
  let module C = Vpart_certify.Certify in
  Alcotest.(check int) "float certificate errors" 0
    (List.length (D.errors (C.certify_mip ~gap:exact_limits.Mip.gap m out stats)));
  let _, _, refuted, _ =
    C.Exact.counts (C.Exact.audit ~gap:exact_limits.Mip.gap m out stats)
  in
  Alcotest.(check int) "exactly refuted claims" 0 refuted

(* Regression, shrunk from a generated badly conditioned model (binaries,
   coefficients spanning 1e-8 .. 1e8).  The root LP point is integral, but
   its rounding breaks the equality row by more than the vet tolerance.
   The search used to install that point anyway, with the LP bound as its
   objective: an Optimal claim whose incumbent violates a row (C004).  The
   leaf is now a numerical prune, and the answer certifies. *)
let test_unvetted_integral_leaf () =
  let m = Lp.create () in
  let b = Array.init 2 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m
    [ (0x1.24a74dff109f7p+22, b.(0)); (-0x1.8acbf123bef31p-4, b.(1)) ]
    Lp.Eq 0x1.24a74d9c5da32p+22;
  let out, stats = Mip.solve ~limits:exact_limits m in
  Alcotest.(check bool) "the leaf is a numerical prune" true
    (stats.Mip.audit.Mip.numerical_prunes >= 1);
  Alcotest.(check bool) "no optimality claim" true
    (match out with Mip.Optimal _ -> false | _ -> true);
  let module D = Vpart_analysis.Diagnostic in
  let module C = Vpart_certify.Certify in
  Alcotest.(check (list string)) "float certificate errors" []
    (List.map
       (fun d -> d.D.code)
       (D.errors (C.certify_mip ~gap:exact_limits.Mip.gap m out stats)));
  let _, _, refuted, _ =
    C.Exact.counts (C.Exact.audit ~gap:exact_limits.Mip.gap m out stats)
  in
  Alcotest.(check int) "exactly refuted claims" 0 refuted

(* Regression, shrunk from a generated badly conditioned model (one
   binary, one continuous column, coefficients 1e-7 .. 1e9).  The search
   used to vet incumbents against the equilibrated model only: z = 4.27,
   at its upper bound, passed that vet and breaks the first row of the
   original model, whose limit is z <= 2.96, so the answer claimed
   Optimal -2455.26 with an incumbent failing C004 (and an exactly
   refuted claim).  Every candidate is now vetted unscaled against the
   original model too, and the answer certifies. *)
let test_vet_against_original () =
  let m = Lp.create () in
  let b = Lp.binary m () in
  let z = Lp.add_var m ~ub:0x1.1161c9170abe4p+2 () in
  Lp.add_constr m [ (0x1.d91d398651c87p+29, z) ] Lp.Le 0x1.5de4d8206cd5ep+31;
  Lp.add_constr m
    [ (0x1.43c82a9f2f394p+8, b); (0x1.281c7f3407e9cp-24, z) ]
    Lp.Ge 0x1.7b1785563e7f2p+7;
  Lp.set_objective m Lp.Minimize [ (-0x1.1f64d4b4802dap+9, z) ];
  let out, stats = Mip.solve ~limits:exact_limits m in
  let std = Lp.standardize m in
  (match out with
   | Mip.Optimal sol | Mip.Feasible (sol, _) ->
     Alcotest.(check bool) "the incumbent satisfies the original model" true
       (Lp.check_feasible ~tol:1e-5 std sol.Mip.x)
   | _ -> ());
  let module D = Vpart_analysis.Diagnostic in
  let module C = Vpart_certify.Certify in
  Alcotest.(check (list string)) "float certificate errors" []
    (List.map
       (fun d -> d.D.code)
       (D.errors (C.certify_mip ~gap:exact_limits.Mip.gap m out stats)));
  let _, _, refuted, _ =
    C.Exact.counts (C.Exact.audit ~gap:exact_limits.Mip.gap m out stats)
  in
  Alcotest.(check int) "exactly refuted claims" 0 refuted

(* ------------------------------------------------------------------ *)
(* Property: agree with brute force on random knapsacks                *)
(* ------------------------------------------------------------------ *)

type knap = { values : int list; weights : int list; cap : int }

let gen_knap =
  let open QCheck2.Gen in
  let* n = int_range 1 12 in
  let* values = list_size (return n) (int_range 1 50) in
  let* weights = list_size (return n) (int_range 1 20) in
  let total = List.fold_left ( + ) 0 weights in
  let* cap = int_range 1 (max 1 total) in
  return { values; weights; cap }

let brute_force_knapsack k =
  let values = Array.of_list k.values and weights = Array.of_list k.weights in
  let n = Array.length values in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0 and v = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w + weights.(i);
        v := !v + values.(i)
      end
    done;
    if !w <= k.cap && !v > !best then best := !v
  done;
  !best

let prop_knapsack =
  QCheck2.Test.make ~count:120 ~name:"mip agrees with brute force on knapsack"
    gen_knap
    (fun k ->
       let m = Lp.create () in
       let vars = List.map (fun _ -> Lp.binary m ()) k.values in
       Lp.add_constr m
         (List.map2 (fun w v -> (float_of_int w, v)) k.weights vars)
         Lp.Le (float_of_int k.cap);
       Lp.set_objective m Lp.Maximize
         (List.map2 (fun value v -> (float_of_int value, v)) k.values vars);
       match Mip.solve ~limits:exact_limits m with
       | Mip.Optimal sol, _ ->
         Float.abs (sol.Mip.obj -. float_of_int (brute_force_knapsack k)) < 1e-6
       | _ -> false)

(* Property: random set-partitioning-ish minimization against brute force. *)
type cover = { costs : int list; pairs : (int * int) list; n : int }

let gen_cover =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* costs = list_size (return n) (int_range 1 30) in
  let* npairs = int_range 1 6 in
  let* pairs =
    list_size (return npairs) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return { costs; pairs; n }

let brute_force_cover c =
  let costs = Array.of_list c.costs in
  let best = ref max_int in
  for mask = 0 to (1 lsl c.n) - 1 do
    let ok =
      List.for_all
        (fun (i, j) -> mask land (1 lsl i) <> 0 || mask land (1 lsl j) <> 0)
        c.pairs
    in
    if ok then begin
      let v = ref 0 in
      for i = 0 to c.n - 1 do
        if mask land (1 lsl i) <> 0 then v := !v + costs.(i)
      done;
      if !v < !best then best := !v
    end
  done;
  !best

let prop_vertex_cover =
  QCheck2.Test.make ~count:120 ~name:"mip agrees with brute force on vertex cover"
    gen_cover
    (fun c ->
       let m = Lp.create () in
       let vars = List.map (fun _ -> Lp.binary m ()) c.costs in
       let var i = List.nth vars i in
       List.iter
         (fun (i, j) ->
            if i = j then Lp.add_constr m [ (1., var i) ] Lp.Ge 1.
            else Lp.add_constr m [ (1., var i); (1., var j) ] Lp.Ge 1.)
         c.pairs;
       Lp.set_objective m Lp.Minimize
         (List.map2 (fun cost v -> (float_of_int cost, v)) c.costs vars);
       match Mip.solve ~limits:exact_limits m with
       | Mip.Optimal sol, _ ->
         Float.abs (sol.Mip.obj -. float_of_int (brute_force_cover c)) < 1e-6
       | _ -> false)

(* ------------------------------------------------------------------ *)
(* Property: ill-scaled MIPs, where equilibration moves the model      *)
(* ------------------------------------------------------------------ *)

(* Binaries b_0..b_{nb-1} and continuous z_j in [0, zub_j].  Row r has
   magnitude 10^(e_r) and column z_j magnitude 10^(f_j), so coefficients
   span about 1e-4 .. 1e4 and [Scaling.scaling] moves both row and
   continuous-column factors off 1 (binaries keep factor 1).  Row 0 has
   e_0 = ±2 and a binary, z_0 has f_0 = ±2.  Unless [infeasible], every
   row holds at a random reference point; otherwise row 0 asks for less
   than its minimum over the box, so the root LP is infeasible. *)
type ill = {
  nb : int;
  zub : float array;
  rows : (float array * float array * Lp.cmp * float) list;
      (* binary coefficients, continuous coefficients, sense, rhs *)
  cost_b : float array;
  cost_z : float array;
  infeasible : bool;
}

let gen_ill =
  let open QCheck2.Gen in
  let signed_digit = map2 (fun s d -> if s then d else -.d) bool (float_range 1. 9.) in
  let* nb = int_range 1 8 in
  let* nz = int_range 1 3 in
  let* nrows = int_range 1 4 in
  let* f0 = oneofl [ -2; 2 ] in
  let* frest = list_size (return (nz - 1)) (int_range (-2) 2) in
  let f = Array.of_list (f0 :: frest) in
  let* zu = array_size (return nz) (float_range 1. 10.) in
  let zub = Array.mapi (fun j u -> u *. (10. ** float_of_int (-f.(j)))) zu in
  let* mask0 = int_range 0 ((1 lsl nb) - 1) in
  let* z0 = array_size (return nz) (float_range 0. 1.) in
  let z0 = Array.mapi (fun j t -> t *. zub.(j)) z0 in
  let* infeasible = map (fun k -> k = 0) (int_range 0 4) in
  let gen_row r =
    let* e = if r = 0 then oneofl [ -2; 2 ] else int_range (-2) 2 in
    let mag = 10. ** float_of_int e in
    let* bin_on = array_size (return nb) bool in
    let* forced = int_range 0 (nb - 1) in
    let* a = array_size (return nb) signed_digit in
    let a =
      Array.mapi
        (fun i v -> if bin_on.(i) || (r = 0 && i = forced) then v *. mag else 0.)
        a
    in
    let* cont_on = array_size (return nz) (map (fun k -> k > 0) (int_range 0 2)) in
    let* kept = int_range 0 (nz - 1) in
    let* g = array_size (return nz) signed_digit in
    let g =
      Array.mapi
        (fun j v ->
           if cont_on.(j) || j = kept || (r = 0 && j = 0) then
             v *. (10. ** float_of_int (e + f.(j)))
           else 0.)
        g
    in
    let act =
      Array.fold_left ( +. ) 0.
        (Array.mapi
           (fun i v -> if mask0 land (1 lsl i) <> 0 then v else 0.)
           a)
      +. Array.fold_left ( +. ) 0. (Array.mapi (fun j v -> v *. z0.(j)) g)
    in
    let* slack = map (fun t -> t *. mag) (float_range 0. 3.) in
    if infeasible && r = 0 then
      let lowest =
        Array.fold_left (fun acc v -> acc +. Float.min 0. v) 0. a
        +. Array.fold_left ( +. ) 0.
             (Array.mapi (fun j v -> Float.min 0. (v *. zub.(j))) g)
      in
      return (a, g, Lp.Le, lowest -. mag)
    else
      let* cmp = oneofl [ Lp.Le; Lp.Le; Lp.Ge; Lp.Ge; Lp.Eq ] in
      let rhs =
        match cmp with
        | Lp.Le -> act +. slack
        | Lp.Ge -> act -. slack
        | Lp.Eq -> act
      in
      return (a, g, cmp, rhs)
  in
  let* rows = flatten_l (List.init nrows gen_row) in
  let* cost_b = array_size (return nb) (float_range (-20.) 20.) in
  let* cz = array_size (return nz) signed_digit in
  let cost_z = Array.mapi (fun j v -> v *. (10. ** float_of_int f.(j))) cz in
  return { nb; zub; rows; cost_b; cost_z; infeasible }

let ill_model k =
  let m = Lp.create ~name:"ill-scaled" () in
  let b = Array.init k.nb (fun _ -> Lp.binary m ()) in
  let z = Array.map (fun ub -> Lp.add_var m ~ub ()) k.zub in
  let terms a g =
    Array.to_list (Array.mapi (fun i v -> (v, b.(i))) a)
    @ Array.to_list (Array.mapi (fun j v -> (v, z.(j))) g)
  in
  List.iter (fun (a, g, cmp, rhs) -> Lp.add_constr m (terms a g) cmp rhs) k.rows;
  Lp.set_objective m Lp.Minimize (terms k.cost_b k.cost_z);
  m

(* Enumerate the binaries; for each assignment solve the continuous
   remainder of the unscaled model with the binaries fixed. *)
let ill_oracle k std =
  let best = ref None in
  for mask = 0 to (1 lsl k.nb) - 1 do
    let fixed = Array.init k.nb (fun i -> if mask land (1 lsl i) <> 0 then 1. else 0.) in
    let lb = Array.copy std.Lp.lb and ub = Array.copy std.Lp.ub in
    Array.iteri
      (fun i v ->
         lb.(i) <- v;
         ub.(i) <- v)
      fixed;
    let r = Simplex.solve { std with Lp.lb; ub } in
    match r.Simplex.status with
    | Simplex.Optimal ->
      (match !best with
       | Some o when o <= r.Simplex.obj -> ()
       | _ -> best := Some r.Simplex.obj)
    | _ -> ()
  done;
  !best

let prop_ill_scaled =
  QCheck2.Test.make ~count:300
    ~name:"mip on ill-scaled models: enumeration optimum, clean certificates"
    ~print:(fun k ->
        Printf.sprintf "nb=%d nz=%d rows=%d infeasible=%b" k.nb
          (Array.length k.zub) (List.length k.rows) k.infeasible)
    gen_ill
    (fun k ->
       let m = ill_model k in
       let std = Lp.standardize m in
       let sc = Scaling.scaling std in
       let moved a = Array.exists (fun v -> v <> 1.) a in
       if not (moved sc.Scaling.row_scale && moved sc.Scaling.col_scale) then
         QCheck2.Test.fail_report "scaling left every factor at 1";
       let out, stats = Mip.solve ~limits:exact_limits m in
       let answer_ok =
         match (out, ill_oracle k std) with
         | Mip.Optimal sol, Some best ->
           stats.Mip.audit.Mip.root_lp <> None
           && Float.abs (sol.Mip.obj -. best)
              <= 1e-6 *. Float.max 1. (Float.abs best)
         | Mip.Infeasible, None ->
           (not k.infeasible) || stats.Mip.audit.Mip.farkas <> None
         | _ -> false
       in
       if not answer_ok then
         QCheck2.Test.fail_reportf "outcome %a disagrees with enumeration"
           Mip.pp_outcome out;
       let module D = Vpart_analysis.Diagnostic in
       let module C = Vpart_certify.Certify in
       (match D.errors (C.certify_mip m out stats) with
        | [] -> ()
        | e :: _ -> QCheck2.Test.fail_reportf "float certificate: %s" (D.to_string e));
       let exact = C.Exact.audit m out stats in
       let _, _, refuted, _ = C.Exact.counts exact in
       (match D.errors exact.C.Exact.findings with
        | [] when refuted = 0 -> ()
        | [] -> QCheck2.Test.fail_reportf "%d exactly refuted claim(s)" refuted
        | e :: _ -> QCheck2.Test.fail_reportf "exact audit: %s" (D.to_string e));
       true)

let () =
  Alcotest.run "mip"
    [ ("exact",
       [ Alcotest.test_case "binary cover" `Quick test_binary_cover;
         Alcotest.test_case "knapsack small" `Quick test_knapsack_small;
         Alcotest.test_case "integer general" `Quick test_integer_general;
         Alcotest.test_case "infeasible" `Quick test_infeasible;
         Alcotest.test_case "pure lp passthrough" `Quick test_pure_lp_passthrough;
         Alcotest.test_case "assignment" `Quick test_equality_assignment;
         Alcotest.test_case "too large" `Quick test_too_large;
         Alcotest.test_case "heuristic hook" `Quick test_heuristic_hook;
         Alcotest.test_case "point outside its box" `Quick test_point_outside_box;
         Alcotest.test_case "fractional integer bounds" `Quick
           test_fractional_integer_bounds;
         Alcotest.test_case "unvetted integral leaf" `Quick
           test_unvetted_integral_leaf;
         Alcotest.test_case "vet against the original model" `Quick
           test_vet_against_original;
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_knapsack;
         QCheck_alcotest.to_alcotest prop_vertex_cover;
         QCheck_alcotest.to_alcotest prop_ill_scaled;
       ]);
    ]
