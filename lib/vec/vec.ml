type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

let create n : t =
  let v = Bigarray.Array1.create Float64 C_layout n in
  Bigarray.Array1.fill v 0.;
  v

let length (v : t) = Bigarray.Array1.dim v
let fill (v : t) x = Bigarray.Array1.fill v x

let copy (v : t) : t =
  let c = Bigarray.Array1.create Float64 C_layout (Bigarray.Array1.dim v) in
  Bigarray.Array1.blit v c;
  c

let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst
let sub (v : t) pos len : t = Bigarray.Array1.sub v pos len
let of_array (a : float array) : t = Bigarray.Array1.of_array Float64 C_layout a

let to_array (v : t) =
  let n = Bigarray.Array1.dim v in
  Array.init n (fun i -> v.{i})

let sum (v : t) =
  let acc = ref 0. in
  for i = 0 to Bigarray.Array1.dim v - 1 do
    acc := !acc +. v.{i}
  done;
  !acc

let mat_create rows cols : mat =
  let m = Bigarray.Array2.create Float64 C_layout rows cols in
  Bigarray.Array2.fill m 0.;
  m


let row (m : mat) i : t = Bigarray.Array2.slice_left m i

let mat_sum (m : mat) =
  let acc = ref 0. in
  for i = 0 to Bigarray.Array2.dim1 m - 1 do
    for j = 0 to Bigarray.Array2.dim2 m - 1 do
      acc := !acc +. m.{i, j}
    done
  done;
  !acc
