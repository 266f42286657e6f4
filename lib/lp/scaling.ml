(* Geometric-mean (Curtis–Reid-style) scaling.

   The scaled problem replaces x_j by x'_j = x_j / c_j and multiplies row i
   by r_i, so a'_ij = r_i * a_ij * c_j, rhs' = r * rhs, obj' = obj * c and
   bounds divide by c.  All factors are positive powers of two: multiplying
   a float by a power of two only changes the exponent, so scaling and
   unscaling are exact and certificates computed on back-mapped solutions
   hold for the original model.  Column factors of integer variables
   stay 1 — their bounds, branching and integrality are untouched.  The
   objective value is invariant: obj'·x' = obj·x. *)

type scaling = { row_scale : float array; col_scale : float array }

let pow2_round v =
  if Float.is_nan v || v <= 0. || v = infinity then 1.
  else begin
    let e = Float.round (Float.log2 v) in
    let e = Float.max (-60.) (Float.min 60. e) in
    Float.ldexp 1. (int_of_float e)
  end

(* Finite and nonzero; false for NaN, whose magnitude compares false. *)
let[@inline] finite_nonzero v = Float.abs v < infinity && v <> 0.

(* Every solve runs this, so the sweeps are plain loops: a float ref
   captured by a closure would be boxed on every update. *)
let scaling (std : Lp.std) =
  let m = std.Lp.nrows and n = std.Lp.ncols in
  let r = Array.make m 1. and c = Array.make n 1. in
  let cmin = Array.make n infinity and cmax = Array.make n 0. in
  for _pass = 1 to 8 do
    (* rows: divide by the geometric mean of the row's magnitude extremes *)
    for i = 0 to m - 1 do
      let idx = std.Lp.row_idx.(i) and value = std.Lp.row_val.(i) in
      let mn = ref infinity and mx = ref 0. in
      for k = 0 to Array.length idx - 1 do
        let v = value.(k) in
        if finite_nonzero v then begin
          let mag = Float.abs v *. r.(i) *. c.(idx.(k)) in
          if mag < !mn then mn := mag;
          if mag > !mx then mx := mag
        end
      done;
      if !mx > 0. then r.(i) <- r.(i) /. sqrt (!mn *. !mx)
    done;
    (* columns, via one sweep accumulating per-column extremes *)
    Array.fill cmin 0 n infinity;
    Array.fill cmax 0 n 0.;
    for i = 0 to m - 1 do
      let idx = std.Lp.row_idx.(i) and value = std.Lp.row_val.(i) in
      for k = 0 to Array.length idx - 1 do
        let v = value.(k) and j = idx.(k) in
        if finite_nonzero v then begin
          let mag = Float.abs v *. r.(i) *. c.(j) in
          if mag < cmin.(j) then cmin.(j) <- mag;
          if mag > cmax.(j) then cmax.(j) <- mag
        end
      done
    done;
    for j = 0 to n - 1 do
      if (not std.Lp.integer.(j)) && cmax.(j) > 0. then
        c.(j) <- c.(j) /. sqrt (cmin.(j) *. cmax.(j))
    done
  done;
  for i = 0 to m - 1 do
    r.(i) <- pow2_round r.(i)
  done;
  for j = 0 to n - 1 do
    c.(j) <- (if std.Lp.integer.(j) then 1. else pow2_round c.(j))
  done;
  { row_scale = r; col_scale = c }

(* [a.(j) *. f.(j)] and [a.(j) /. f.(j)] as loops: a closure returning
   a float would box every element. *)
let mul a f =
  let b = Array.copy a in
  for j = 0 to Array.length b - 1 do
    b.(j) <- a.(j) *. f.(j)
  done;
  b

let div a f =
  let b = Array.copy a in
  for j = 0 to Array.length b - 1 do
    b.(j) <- a.(j) /. f.(j)
  done;
  b

let scale sc (std : Lp.std) =
  if Array.length sc.row_scale <> std.Lp.nrows
     || Array.length sc.col_scale <> std.Lp.ncols
  then invalid_arg "Scaling.scale: dimension mismatch";
  let r = sc.row_scale and c = sc.col_scale in
  {
    std with
    Lp.std_name = std.Lp.std_name ^ "/scaled";
    obj = mul std.Lp.obj c;
    lb = div std.Lp.lb c;
    ub = div std.Lp.ub c;
    row_val =
      Array.mapi
        (fun i value ->
           let idx = std.Lp.row_idx.(i) and ri = r.(i) in
           let row = Array.copy value in
           for k = 0 to Array.length row - 1 do
             row.(k) <- value.(k) *. ri *. c.(idx.(k))
           done;
           row)
        std.Lp.row_val;
    row_idx = Array.map Array.copy std.Lp.row_idx;
    rhs = mul std.Lp.rhs r;
  }

let equilibrate std =
  let sc = scaling std in
  (sc, scale sc std)

let scale_point sc x =
  if Array.length x <> Array.length sc.col_scale then
    invalid_arg "Scaling.scale_point: length mismatch";
  div x sc.col_scale

let unscale_point sc x =
  if Array.length x <> Array.length sc.col_scale then
    invalid_arg "Scaling.unscale_point: length mismatch";
  mul x sc.col_scale

let unscale_duals sc y =
  if Array.length y <> Array.length sc.row_scale then
    invalid_arg "Scaling.unscale_duals: length mismatch";
  mul y sc.row_scale
