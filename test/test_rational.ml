(* Tests for Vpart_rational.Rational: exact arithmetic, normalization,
   and the lossless IEEE-754 embedding the exact certificate auditor
   (Certify.Exact) is built on. *)

module Q = Vpart_rational.Rational

let qt = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_normalization () =
  Alcotest.check qt "3/6 = 1/2" (Q.make 1 2) (Q.make 3 6);
  Alcotest.check qt "-4/-8 = 1/2" (Q.make 1 2) (Q.make (-4) (-8));
  Alcotest.check qt "4/-8 = -1/2" (Q.make (-1) 2) (Q.make 4 (-8));
  Alcotest.check qt "0/7 = 0" Q.zero (Q.make 0 7);
  Alcotest.(check string) "to_string 3/6" "1/2" (Q.to_string (Q.make 3 6));
  Alcotest.(check string) "to_string -2/4" "-1/2" (Q.to_string (Q.make (-2) 4));
  Alcotest.check_raises "den 0" Division_by_zero (fun () ->
      ignore (Q.make 1 0))

let test_arithmetic () =
  let a = Q.make 1 3 and b = Q.make 1 6 in
  Alcotest.check qt "1/3 + 1/6 = 1/2" (Q.make 1 2) (Q.add a b);
  Alcotest.check qt "1/3 - 1/6 = 1/6" b (Q.sub a b);
  Alcotest.check qt "1/3 * 1/6 = 1/18" (Q.make 1 18) (Q.mul a b);
  Alcotest.check qt "(1/3) / (1/6) = 2" (Q.of_int 2) (Q.div a b);
  Alcotest.check qt "inv(-2/3) = -3/2" (Q.make (-3) 2) (Q.inv (Q.make (-2) 3));
  Alcotest.(check int) "compare 1/3 1/6" 1 (Q.compare a b);
  Alcotest.(check int) "compare -1/3 1/6" (-1) (Q.compare (Q.neg a) b);
  Alcotest.(check int) "sign -5" (-1) (Q.sign (Q.of_int (-5)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_of_int_extremes () =
  let m = Q.of_int min_int in
  Alcotest.(check int) "min_int negative" (-1) (Q.sign m);
  Alcotest.check qt "min_int + |min_int| = 0" Q.zero (Q.add m (Q.abs m));
  (* 2^53 is the largest power with every smaller int exactly a double *)
  Alcotest.(check (float 0.)) "2^53 embeds and round-trips"
    (Float.ldexp 1. 53)
    (Q.to_float (Q.of_int (1 lsl 53)));
  (* max_int = 2^62 - 1 is not a double; to_float must stay within 2 ulp
     of the correctly rounded value 2^62 (ulp there is 512) *)
  Alcotest.(check bool) "max_int within 2 ulp" true
    (Float.abs (Q.to_float (Q.of_int max_int) -. Float.ldexp 1. 62)
     <= 1024.)

let test_of_float_is_exact_dyadic () =
  (* 0.1 is NOT 1/10 in binary: the embedding must produce the exact
     dyadic the literal denotes, strictly greater than 1/10. *)
  Alcotest.(check bool) "of_float 0.1 > 1/10" true
    (Q.compare (Q.of_float 0.1) (Q.make 1 10) > 0);
  Alcotest.check qt "of_float 0.1 exact"
    (Q.div
       (Q.of_int 3602879701896397)
       (Q.of_float (Float.ldexp 1. 55)))
    (Q.of_float 0.1);
  Alcotest.check qt "of_float 0.5" (Q.make 1 2) (Q.of_float 0.5);
  Alcotest.check qt "of_float -0." Q.zero (Q.of_float (-0.));
  (* subnormals embed exactly too *)
  let sub = Float.ldexp 3. (-1074) in
  Alcotest.check qt "subnormal 3*2^-1074"
    (Q.div (Q.of_int 3) (Q.of_float (Float.ldexp 1. 500) |> fun t ->
       Q.mul t (Q.mul (Q.of_float (Float.ldexp 1. 500))
                  (Q.of_float (Float.ldexp 1. 74)))))
    (Q.of_float sub);
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Rational.of_float: non-finite float") (fun () ->
      ignore (Q.of_float Float.nan));
  Alcotest.(check bool) "of_float_opt inf" true
    (Q.of_float_opt Float.infinity = None)

let test_big_magnitudes () =
  (* products/sums far beyond 2^63: (2^60)^3 needs ~180 bits *)
  let t = Q.of_float (Float.ldexp 1. 60) in
  let big = Q.mul t (Q.mul t t) in
  Alcotest.check qt "(2^60)^3 / (2^60)^2 = 2^60" t
    (Q.div big (Q.mul t t));
  Alcotest.(check (float 0.)) "to_float round-trips 2^180"
    (Float.ldexp 1. 180) (Q.to_float big);
  (* exact cancellation the float layer cannot see: 1e16 + 1 - 1e16 *)
  let a = Q.of_float 1e16 in
  Alcotest.check qt "1e16 + 1 - 1e16 = 1 exactly" Q.one
    (Q.sub (Q.add a Q.one) a);
  Alcotest.(check bool) "float layer collapses the same sum" true
    (1e16 +. 1. -. 1e16 = 0.)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_finite_float =
  (* Exercise the full double range, including tiny/huge magnitudes and
     subnormals, by scaling a base float with a wide exponent. *)
  let open QCheck2.Gen in
  let* base = float in
  let* e = int_range (-1080) 1080 in
  let f = Float.ldexp base e in
  return (if Float.is_finite f then f else Float.ldexp 1. (e mod 100))

let prop_of_float_roundtrip =
  QCheck2.Test.make ~count:1000
    ~name:"of_float/to_float round-trips bit-for-bit on finite doubles"
    gen_finite_float
    (fun f ->
       Int64.bits_of_float (Q.to_float (Q.of_float f))
       = Int64.bits_of_float (if f = 0. then Float.abs f else f))

let prop_of_float_decomposition =
  (* of_float agrees with an independent mantissa/exponent recomposition:
     f = m · 2^(e-53) with m = frexp mantissa scaled to 53 bits. *)
  QCheck2.Test.make ~count:1000
    ~name:"of_float equals independent mantissa/exponent recomposition"
    gen_finite_float
    (fun f ->
       let m, e = Float.frexp f in
       let mi = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
       let shift = e - 53 in
       let pow2 n =
         (* exact 2^n as a rational, n arbitrary sign *)
         let rec go acc k =
           if k = 0 then acc
           else
             let step = min k 512 in
             go (Q.mul acc (Q.of_float (Float.ldexp 1. step))) (k - step)
         in
         if n >= 0 then go Q.one n else Q.inv (go Q.one (-n))
       in
       Q.equal (Q.of_float f) (Q.mul (Q.of_int mi) (pow2 shift)))

let gen_float_pair =
  QCheck2.Gen.pair gen_finite_float gen_finite_float

let prop_field_laws =
  QCheck2.Test.make ~count:500
    ~name:"embedded arithmetic: (a+b)-b = a, a*b = b*a, sub antisymmetry"
    gen_float_pair
    (fun (fa, fb) ->
       let a = Q.of_float fa and b = Q.of_float fb in
       Q.equal (Q.sub (Q.add a b) b) a
       && Q.equal (Q.mul a b) (Q.mul b a)
       && Q.equal (Q.sub a b) (Q.neg (Q.sub b a))
       && Q.compare a b = -Q.compare b a)

let prop_compare_consistent_with_floats =
  QCheck2.Test.make ~count:500
    ~name:"exact compare agrees with float compare on embedded doubles"
    gen_float_pair
    (fun (fa, fb) ->
       Q.compare (Q.of_float fa) (Q.of_float fb) = Float.compare fa fb
       (* Float.compare distinguishes -0. < 0.; the embedding maps both
          to the same rational, so skip that single pair *)
       || (fa = 0. && fb = 0.))

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

(* [equal] is structural, so every result must come back fully reduced.
   Numerators and denominators are drawn as odd·2^k with the odd part
   often 1, so the draws cover pure dyadic, mixed and odd denominators;
   the expected string comes from an independent [int] gcd. *)
let gen_odd_pow2 =
  let open QCheck2.Gen in
  let* odd = oneof [ return 1; map (fun k -> (2 * k) + 1) (int_bound 500_000) ] in
  let* k = int_bound 20 in
  return (odd lsl k)

let prop_make_reduces =
  QCheck2.Test.make ~count:1000
    ~name:"make n d prints as the int-gcd reduction of n/d"
    QCheck2.Gen.(quad gen_odd_pow2 gen_odd_pow2 bool bool)
    (fun (n, d, neg_n, neg_d) ->
       let n = if neg_n then -n else n and d = if neg_d then -d else d in
       let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
       let g = gcd (abs n) (abs d) in
       let sign = if (n < 0) <> (d < 0) then "-" else "" in
       let rn = abs n / g and rd = abs d / g in
       let want =
         if rd = 1 then Printf.sprintf "%s%d" sign rn
         else Printf.sprintf "%s%d/%d" sign rn rd
       in
       Q.to_string (Q.make n d) = want)

(* Decimal-string helpers for checking big numerators and denominators
   without access to the representation. *)
let halve digits =
  let buf = Buffer.create (String.length digits) and rem = ref 0 in
  String.iter
    (fun c ->
       let cur = (!rem * 10) + Char.code c - Char.code '0' in
       if Buffer.length buf > 0 || cur / 2 > 0 then
         Buffer.add_char buf (Char.chr (Char.code '0' + (cur / 2)));
       rem := cur mod 2)
    digits;
  if Buffer.length buf = 0 then "0" else Buffer.contents buf

let is_odd digits =
  (Char.code digits.[String.length digits - 1] - Char.code '0') mod 2 = 1

let rec is_pow2 digits =
  digits = "1" || ((not (is_odd digits)) && digits <> "0" && is_pow2 (halve digits))

let prop_dyadic_results_reduced =
  QCheck2.Test.make ~count:300
    ~name:"sums and products of embedded doubles: 2^k denominator, odd \
           numerator above 1"
    QCheck2.Gen.(triple gen_finite_float gen_finite_float gen_finite_float)
    (fun (fa, fb, fc) ->
       let a = Q.of_float fa and b = Q.of_float fb and c = Q.of_float fc in
       List.for_all
         (fun v ->
            let s = Q.to_string v in
            let s =
              if s.[0] = '-' then String.sub s 1 (String.length s - 1) else s
            in
            match String.index_opt s '/' with
            | None -> true
            | Some i ->
              let num = String.sub s 0 i
              and den = String.sub s (i + 1) (String.length s - i - 1) in
              is_pow2 den && den <> "1" && is_odd num)
         [ a; Q.add a b; Q.mul a b; Q.add (Q.mul a b) c; Q.sub (Q.mul a c) b ])

let gen_ratio =
  let open QCheck2.Gen in
  let* n = int_range (-1_000_000) 1_000_000 in
  let* d = int_range 1 1_000_000 in
  return (Q.make n d)

let prop_div_inverts_mul =
  QCheck2.Test.make ~count:500
    ~name:"div (mul a b) b = a on general (non-dyadic) rationals"
    QCheck2.Gen.(pair gen_ratio gen_ratio)
    (fun (a, b) -> Q.is_zero b || Q.equal (Q.div (Q.mul a b) b) a)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rational"
    [
      ( "units",
        [ Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "of_int extremes" `Quick test_of_int_extremes;
          Alcotest.test_case "of_float exact dyadics" `Quick
            test_of_float_is_exact_dyadic;
          Alcotest.test_case "big magnitudes" `Quick test_big_magnitudes;
        ] );
      ( "properties",
        [ q prop_of_float_roundtrip;
          q prop_of_float_decomposition;
          q prop_field_laws;
          q prop_compare_consistent_with_floats;
        ] );
      ( "normalize",
        [ q prop_make_reduces;
          q prop_dyadic_results_reduced;
          q prop_div_inverts_mul;
        ] );
    ]
