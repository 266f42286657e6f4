(* Arbitrary-precision rationals over in-module big naturals.

   Limbs are little-endian ints in base 2^26: a limb product fits well
   inside the 63-bit native int (26 + 26 = 52 bits plus carries), so
   schoolbook multiplication needs no splitting.  The numbers flowing
   through the exact auditor are embeddings of IEEE-754 doubles (53-bit
   mantissas, exponents within ±1074) and their sums/products, so limb
   counts stay small and every denominator is a power of two.
   [normalize] exploits that: it shifts out the common power of two and
   stops there when either side is left a power of two, which is coprime
   with the odd other side.  Only non-dyadic values (quotients from [div])
   pay for the binary gcd, O(bits²/limb), and the shift-and-subtract
   division, O(bits·limbs) with fresh arrays per bit. *)

(* ------------------------------------------------------------------ *)
(* Big naturals                                                        *)
(* ------------------------------------------------------------------ *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

(* [||] is zero; otherwise the top limb is nonzero. *)
type nat = int array

let nat_zero : nat = [||]
let nat_is_zero (a : nat) = Array.length a = 0

let trim (a : nat) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let nat_of_int64 (v : int64) : nat =
  (* v >= 0 *)
  let rec limbs v acc =
    if Int64.equal v 0L then acc
    else
      limbs
        (Int64.shift_right_logical v limb_bits)
        (Int64.to_int (Int64.logand v (Int64.of_int limb_mask)) :: acc)
  in
  Array.of_list (List.rev (limbs v []))

let nat_one : nat = [| 1 |]
let nat_is_one (a : nat) = Array.length a = 1 && a.(0) = 1

let nat_compare (a : nat) (b : nat) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let nat_equal a b = nat_compare a b = 0

let nat_add (a : nat) (b : nat) : nat =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  trim r

(* a - b, requiring a >= b *)
let nat_sub (a : nat) (b : nat) : nat =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  trim r

let nat_mul (a : nat) (b : nat) : nat =
  if nat_is_zero a || nat_is_zero b then nat_zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = r.(!k) + !carry in
          r.(!k) <- cur land limb_mask;
          carry := cur lsr limb_bits;
          incr k
        done
      end
    done;
    trim r
  end

let nat_num_bits (a : nat) =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let b = ref 0 in
    while top lsr !b <> 0 do
      incr b
    done;
    ((l - 1) * limb_bits) + !b
  end

let nat_bit (a : nat) i =
  let limb = i / limb_bits in
  limb < Array.length a && (a.(limb) lsr (i mod limb_bits)) land 1 = 1

let nat_shift_left (a : nat) k : nat =
  if nat_is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    trim r
  end

let nat_shift_right (a : nat) k : nat =
  if nat_is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then nat_zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      trim r
    end
  end

let nat_trailing_zeros (a : nat) =
  (* a <> 0 *)
  let i = ref 0 in
  while a.(!i) = 0 do
    incr i
  done;
  let b = ref 0 in
  while (a.(!i) lsr !b) land 1 = 0 do
    incr b
  done;
  (!i * limb_bits) + !b

(* Shift-and-subtract long division: O(bits(a) · limbs). *)
let nat_divmod (a : nat) (b : nat) : nat * nat =
  if nat_is_zero b then raise Division_by_zero;
  if nat_compare a b < 0 then (nat_zero, a)
  else if nat_is_one b then (a, nat_zero)
  else begin
    let n = nat_num_bits a in
    let q = Array.make ((n + limb_bits - 1) / limb_bits) 0 in
    let r = ref nat_zero in
    for i = n - 1 downto 0 do
      r := nat_shift_left !r 1;
      if nat_bit a i then r := nat_add !r nat_one;
      if nat_compare !r b >= 0 then begin
        r := nat_sub !r b;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (trim q, !r)
  end

(* Stein's binary gcd: subtraction and shifts only. *)
let nat_gcd (a : nat) (b : nat) : nat =
  if nat_is_zero a then b
  else if nat_is_zero b then a
  else if nat_is_one a || nat_is_one b then nat_one
  else begin
    let ta = nat_trailing_zeros a and tb = nat_trailing_zeros b in
    let shift = Stdlib.min ta tb in
    let x = ref (nat_shift_right a ta) and y = ref (nat_shift_right b tb) in
    while not (nat_equal !x !y) do
      if nat_compare !x !y > 0 then begin
        let d = nat_sub !x !y in
        x := nat_shift_right d (nat_trailing_zeros d)
      end
      else begin
        let d = nat_sub !y !x in
        y := nat_shift_right d (nat_trailing_zeros d)
      end
    done;
    nat_shift_left !x shift
  end

(* Exact for naturals below 2^53 (every limb step stays an integer). *)
let nat_to_float_small (a : nat) =
  let v = ref 0. in
  for i = Array.length a - 1 downto 0 do
    v := (!v *. float_of_int limb_base) +. float_of_int a.(i)
  done;
  !v

(* Division by a small positive int (fits a limb product). *)
let nat_divmod_small (a : nat) d =
  let q = Array.make (Array.length a) 0 in
  let rem = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (trim q, !rem)

let nat_to_decimal (a : nat) =
  if nat_is_zero a then "0"
  else begin
    let chunks = ref [] in
    let x = ref a in
    while not (nat_is_zero !x) do
      let q, r = nat_divmod_small !x 10_000_000 in
      chunks := r :: !chunks;
      x := q
    done;
    match !chunks with
    | [] -> "0"
    | top :: rest ->
      let buf = Buffer.create 16 in
      Buffer.add_string buf (string_of_int top);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest;
      Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Rationals                                                           *)
(* ------------------------------------------------------------------ *)

(* Invariants: den >= 1; gcd(num, den) = 1; num = 0 implies (neg = false,
   den = 1). *)
type t = { neg : bool; num : nat; den : nat }

let zero = { neg = false; num = nat_zero; den = nat_one }

(* [a <> 0] is a power of two: its lowest set bit is its highest. *)
let nat_is_pow2 (a : nat) = nat_trailing_zeros a = nat_num_bits a - 1

(* After the shift one side is odd, so a power-of-two other side (1
   included) leaves the pair coprime without a gcd. *)
let normalize neg num den =
  if nat_is_zero num then zero
  else begin
    let k = Stdlib.min (nat_trailing_zeros num) (nat_trailing_zeros den) in
    let num = nat_shift_right num k and den = nat_shift_right den k in
    if nat_is_pow2 den || nat_is_pow2 num then { neg; num; den }
    else begin
      let g = nat_gcd num den in
      if nat_is_one g then { neg; num; den }
      else begin
        let num, _ = nat_divmod num g and den, _ = nat_divmod den g in
        { neg; num; den }
      end
    end
  end

let of_int i =
  let neg = i < 0 in
  let mag = nat_of_int64 (Int64.abs (Int64.of_int i)) in
  if nat_is_zero mag then zero else { neg; num = mag; den = nat_one }

let one = of_int 1
let minus_one = of_int (-1)

let make num den =
  if den = 0 then raise Division_by_zero;
  let neg = num < 0 <> (den < 0) in
  let n = nat_of_int64 (Int64.abs (Int64.of_int num)) in
  let d = nat_of_int64 (Int64.abs (Int64.of_int den)) in
  normalize neg n d

let is_zero t = nat_is_zero t.num
let sign t = if nat_is_zero t.num then 0 else if t.neg then -1 else 1
let neg t = if is_zero t then t else { t with neg = not t.neg }
let abs t = { t with neg = false }

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let n1 = nat_mul a.num b.den and n2 = nat_mul b.num a.den in
    let den = nat_mul a.den b.den in
    if a.neg = b.neg then normalize a.neg (nat_add n1 n2) den
    else begin
      match nat_compare n1 n2 with
      | 0 -> zero
      | c when c > 0 -> normalize a.neg (nat_sub n1 n2) den
      | _ -> normalize b.neg (nat_sub n2 n1) den
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else normalize (a.neg <> b.neg) (nat_mul a.num b.num) (nat_mul a.den b.den)

let inv t =
  if is_zero t then raise Division_by_zero
  else { neg = t.neg; num = t.den; den = t.num }

let div a b = mul a (inv b)

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Stdlib.compare sa sb
  else if sa = 0 then 0
  else begin
    let c = nat_compare (nat_mul a.num b.den) (nat_mul b.num a.den) in
    if sa > 0 then c else -c
  end

let equal a b = a.neg = b.neg && nat_equal a.num b.num && nat_equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Float conversion                                                    *)
(* ------------------------------------------------------------------ *)

let of_float_opt f =
  if not (Float.is_finite f) then None
  else if f = 0. then Some zero
  else begin
    let bits = Int64.bits_of_float f in
    let neg = Int64.compare bits 0L < 0 in
    let biased =
      Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL)
    in
    let frac = Int64.logand bits 0xF_FFFF_FFFF_FFFFL in
    let mant, e =
      if biased = 0 then (frac, -1074) (* subnormal *)
      else (Int64.logor frac (Int64.shift_left 1L 52), biased - 1075)
    in
    let mant = nat_of_int64 mant in
    let tz = nat_trailing_zeros mant in
    let mant = nat_shift_right mant tz and e = e + tz in
    Some
      (if e >= 0 then { neg; num = nat_shift_left mant e; den = nat_one }
       else { neg; num = mant; den = nat_shift_left nat_one (-e) })
  end

let of_float f =
  match of_float_opt f with
  | Some t -> t
  | None -> invalid_arg "Rational.of_float: non-finite float"

let to_float t =
  if is_zero t then 0.
  else begin
    (* Divide the top 53 bits of each side and rescale: exact whenever the
       value is a representable dyadic (both prefixes then carry the full
       numbers), within 2 ulp otherwise. *)
    let take x =
      let b = nat_num_bits x in
      if b <= 53 then (nat_to_float_small x, 0)
      else (nat_to_float_small (nat_shift_right x (b - 53)), b - 53)
    in
    let nf, ns = take t.num and df, ds = take t.den in
    let v = Float.ldexp (nf /. df) (ns - ds) in
    if t.neg then -.v else v
  end

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string t =
  let s = if t.neg then "-" else "" in
  if nat_is_one t.den then s ^ nat_to_decimal t.num
  else s ^ nat_to_decimal t.num ^ "/" ^ nat_to_decimal t.den

let to_short_string t =
  (* Exact when readable; otherwise the nearest double, marked as such. *)
  if nat_num_bits t.num <= 64 && nat_num_bits t.den <= 64 then to_string t
  else Printf.sprintf "~%.9g" (to_float t)

let pp ppf t = Format.pp_print_string ppf (to_short_string t)
