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

type sparse = { ptr : int array; idx : int array; vals : t array }

let[@inline] nonzero (ms : mat array) i j =
  match ms with
  | [| m |] -> m.{i, j} <> 0.
  | [| m; m' |] -> m.{i, j} <> 0. || m'.{i, j} <> 0.
  | _ -> Array.exists (fun (m : mat) -> m.{i, j} <> 0.) ms

(* Two passes over the dense matrices: count each row's entries, then
   copy them out. *)
let compress_rows (ms : mat array) =
  let rows = Bigarray.Array2.dim1 ms.(0)
  and cols = Bigarray.Array2.dim2 ms.(0) in
  let ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let c = ref 0 in
    for j = 0 to cols - 1 do
      if nonzero ms i j then incr c
    done;
    ptr.(i + 1) <- ptr.(i) + !c
  done;
  let n = ptr.(rows) in
  let idx = Array.make n 0 and vals = Array.map (fun _ -> create n) ms in
  for i = 0 to rows - 1 do
    let k = ref ptr.(i) in
    for j = 0 to cols - 1 do
      if nonzero ms i j then begin
        idx.(!k) <- j;
        for m = 0 to Array.length ms - 1 do
          vals.(m).{!k} <- ms.(m).{i, j}
        done;
        incr k
      end
    done
  done;
  { ptr; idx; vals }

(* A counting sort of the entries by index: scanning the lines in order
   keeps each new line's entries ascending. *)
let transpose sp width =
  let lines = Array.length sp.ptr - 1 and n = Array.length sp.idx in
  let ptr = Array.make (width + 1) 0 in
  Array.iter (fun j -> ptr.(j + 1) <- ptr.(j + 1) + 1) sp.idx;
  for j = 0 to width - 1 do
    ptr.(j + 1) <- ptr.(j + 1) + ptr.(j)
  done;
  let fill = Array.sub ptr 0 width in
  let idx = Array.make n 0 and vals = Array.map (fun _ -> create n) sp.vals in
  for l = 0 to lines - 1 do
    for k = sp.ptr.(l) to sp.ptr.(l + 1) - 1 do
      let j = sp.idx.(k) in
      let k' = fill.(j) in
      idx.(k') <- l;
      for m = 0 to Array.length vals - 1 do
        vals.(m).{k'} <- sp.vals.(m).{k}
      done;
      fill.(j) <- k' + 1
    done
  done;
  { ptr; idx; vals }
