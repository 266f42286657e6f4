(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: the bytes primitives read and write it unboxed, so a
   draw allocates nothing (an [int64] field would box every update). *)
type t = Bytes.t

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t n =
  if n < 0 then invalid_arg "Rng.split: n must be non-negative";
  (* Seed each child from a well-mixed draw of the parent.  The children
     start from distinct 64-bit states (distinct with overwhelming
     probability), so their streams are decorrelated in a way that
     [create (seed + i)] -- sequential raw states -- would not be, and
     the whole family is a pure function of the parent's state. *)
  let seeds = Array.make (max n 1) 0L in
  for i = 0 to n - 1 do
    seeds.(i) <- int64 t
  done;
  Array.init n (fun i -> of_state seeds.(i))

let float t =
  (* 53 top bits -> [0,1) *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* mask to 62 bits so the value is non-negative as a native int;
     plain modulo bias is negligible for our bounds (<< 2^62) *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t prob = float t < prob

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_distinct_into t k perm =
  let n = Array.length perm in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  if k >= n then begin
    shuffle t perm;
    n
  end
  else begin
    (* partial Fisher-Yates, then the picks reversed: the order in which
       a list consed pick by pick holds them *)
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    for i = 0 to (k / 2) - 1 do
      let tmp = perm.(i) in
      perm.(i) <- perm.(k - 1 - i);
      perm.(k - 1 - i) <- tmp
    done;
    k
  end

let sample_distinct t k n =
  let perm = Array.make n 0 in
  let m = sample_distinct_into t k perm in
  List.init m (fun i -> perm.(i))
