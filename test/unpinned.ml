(* The QP layout model with its site-symmetry pinning undone, for tests
   that need the search the pinning removes: Qp_solver.build_model's MIP,
   standardized and rebuilt with every x_{t,s} (s > t) back in [0, 1].
   Column indices are unchanged. *)

open Vpart

let model stats (opts : Qp_solver.options) =
  let pinned, (xv, _) = Qp_solver.build_model stats opts in
  let std = Lp.standardize pinned in
  let relax = Array.make std.Lp.ncols false in
  Array.iteri
    (fun t row -> Array.iteri (fun s j -> if s > t then relax.(j) <- true) row)
    xv;
  let m = Lp.create ~name:"vpart-qp-unpinned" () in
  for j = 0 to std.Lp.ncols - 1 do
    ignore
      (Lp.add_var m ~name:(Lp.var_name pinned j) ~lb:std.Lp.lb.(j)
         ~ub:(if relax.(j) then 1. else std.Lp.ub.(j))
         ~integer:std.Lp.integer.(j) ())
  done;
  for r = 0 to std.Lp.nrows - 1 do
    Lp.add_constr m
      (Array.to_list
         (Array.map2 (fun c j -> (c, j)) std.Lp.row_val.(r) std.Lp.row_idx.(r)))
      std.Lp.row_cmp.(r) std.Lp.rhs.(r)
  done;
  Lp.set_objective m Lp.Minimize ~constant:std.Lp.obj_const
    (List.init std.Lp.ncols (fun j -> (std.Lp.obj.(j), j)));
  m

(* [model] solved by plain branch-and-bound: x before y before the
   continuous columns, no primal heuristic, 60 s, gap 1e-3. *)
let solve (stats : Stats.t) (opts : Qp_solver.options) =
  let m = model stats opts in
  let nx = stats.Stats.num_txns * opts.Qp_solver.num_sites in
  let ny = stats.Stats.num_attrs * opts.Qp_solver.num_sites in
  let priority v = if v < nx then 2 else if v < nx + ny then 1 else 0 in
  let limits =
    { Mip.default_limits with Mip.time_limit = Some 60.; gap = 1e-3 }
  in
  let outcome, mip_stats = Mip.solve ~limits ~priority m in
  (m, outcome, mip_stats)
