(* Geometric-mean (Curtis–Reid-style) scaling.

   The scaled problem replaces x_j by x'_j = x_j / c_j and multiplies row i
   by r_i, so a'_ij = r_i * a_ij * c_j, rhs' = r * rhs, obj' = obj * c and
   bounds divide by c.  All factors are positive powers of two: multiplying
   a float by a power of two only changes the exponent, so scaling and
   unscaling are exact and certificates computed on back-mapped solutions
   are as trustworthy as on an unscaled solve.  Column factors of integer
   variables stay 1 — their bounds, branching and integrality are
   untouched.  The objective value is invariant: obj'·x' = obj·x. *)

type scaling = { row_scale : float array; col_scale : float array }

let pow2_round v =
  if Float.is_nan v || v <= 0. || v = infinity then 1.
  else begin
    let e = Float.round (Float.log2 v) in
    let e = Float.max (-60.) (Float.min 60. e) in
    Float.ldexp 1. (int_of_float e)
  end

let finite_nonzero v =
  (not (Float.is_nan v)) && Float.abs v <> infinity && v <> 0.

let scaling (std : Lp.std) =
  let m = std.Lp.nrows and n = std.Lp.ncols in
  let r = Array.make m 1. and c = Array.make n 1. in
  for _pass = 1 to 8 do
    (* rows: divide by the geometric mean of the row's magnitude extremes *)
    for i = 0 to m - 1 do
      let idx = std.Lp.row_idx.(i) and value = std.Lp.row_val.(i) in
      let mn = ref infinity and mx = ref 0. in
      Array.iteri
        (fun k j ->
           let v = value.(k) in
           if finite_nonzero v then begin
             let mag = Float.abs v *. r.(i) *. c.(j) in
             if mag < !mn then mn := mag;
             if mag > !mx then mx := mag
           end)
        idx;
      if !mx > 0. then r.(i) <- r.(i) /. sqrt (!mn *. !mx)
    done;
    (* columns, via one sweep accumulating per-column extremes *)
    let mn = Array.make n infinity and mx = Array.make n 0. in
    for i = 0 to m - 1 do
      let idx = std.Lp.row_idx.(i) and value = std.Lp.row_val.(i) in
      Array.iteri
        (fun k j ->
           let v = value.(k) in
           if finite_nonzero v then begin
             let mag = Float.abs v *. r.(i) *. c.(j) in
             if mag < mn.(j) then mn.(j) <- mag;
             if mag > mx.(j) then mx.(j) <- mag
           end)
        idx
    done;
    for j = 0 to n - 1 do
      if (not std.Lp.integer.(j)) && mx.(j) > 0. then
        c.(j) <- c.(j) /. sqrt (mn.(j) *. mx.(j))
    done
  done;
  for i = 0 to m - 1 do
    r.(i) <- pow2_round r.(i)
  done;
  for j = 0 to n - 1 do
    c.(j) <- (if std.Lp.integer.(j) then 1. else pow2_round c.(j))
  done;
  { row_scale = r; col_scale = c }

let is_identity sc =
  Array.for_all (fun v -> v = 1.) sc.row_scale
  && Array.for_all (fun v -> v = 1.) sc.col_scale

let scale sc (std : Lp.std) =
  if Array.length sc.row_scale <> std.Lp.nrows
     || Array.length sc.col_scale <> std.Lp.ncols
  then invalid_arg "Scaling.scale: dimension mismatch";
  let r = sc.row_scale and c = sc.col_scale in
  {
    std with
    Lp.std_name = std.Lp.std_name ^ "/scaled";
    obj = Array.mapi (fun j o -> o *. c.(j)) std.Lp.obj;
    lb = Array.mapi (fun j v -> v /. c.(j)) std.Lp.lb;
    ub = Array.mapi (fun j v -> v /. c.(j)) std.Lp.ub;
    row_val =
      Array.mapi
        (fun i value ->
           let idx = std.Lp.row_idx.(i) in
           Array.mapi (fun k v -> v *. r.(i) *. c.(idx.(k))) value)
        std.Lp.row_val;
    row_idx = Array.map Array.copy std.Lp.row_idx;
    rhs = Array.mapi (fun i b -> b *. r.(i)) std.Lp.rhs;
  }

let scale_point sc x =
  if Array.length x <> Array.length sc.col_scale then
    invalid_arg "Scaling.scale_point: length mismatch";
  Array.mapi (fun j v -> v /. sc.col_scale.(j)) x

let unscale_point sc x =
  if Array.length x <> Array.length sc.col_scale then
    invalid_arg "Scaling.unscale_point: length mismatch";
  Array.mapi (fun j v -> v *. sc.col_scale.(j)) x

let unscale_duals sc y =
  if Array.length y <> Array.length sc.row_scale then
    invalid_arg "Scaling.unscale_duals: length mismatch";
  Array.mapi (fun i v -> v *. sc.row_scale.(i)) y
