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
  (* The heuristic's proposal must be vetted and used when it is optimal. *)
  let m = Lp.create () in
  let x = Lp.binary m () and y = Lp.binary m () in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 1.;
  Lp.set_objective m Lp.Minimize [ (2., x); (3., y) ];
  let called = ref false in
  let heuristic _lp_point =
    called := true;
    Some [| 1.; 0. |]
  in
  let out, _ = Mip.solve ~limits:exact_limits ~heuristic m in
  let sol = get_optimal "heuristic" out in
  Alcotest.(check bool) "heuristic called" true !called;
  Alcotest.(check (float 1e-6)) "objective" 2. sol.Mip.obj

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
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_knapsack;
         QCheck_alcotest.to_alcotest prop_vertex_cover;
       ]);
    ]
