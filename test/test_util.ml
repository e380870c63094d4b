(* Tests for wcet_util: PCG32 determinism, exact rationals. The fixpoint
   engine and the domain pool are covered by test_fixpoint.ml. *)

module Pcg = Wcet_util.Pcg
module Rat = Wcet_util.Rat

let test_pcg_deterministic () =
  let a = Pcg.create ~seed:42L () and b = Pcg.create ~seed:42L () in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Pcg.next_uint32 a) (Pcg.next_uint32 b)
  done

let test_pcg_seed_sensitivity () =
  let a = Pcg.create ~seed:1L () and b = Pcg.create ~seed:2L () in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Pcg.next_uint32 a) (Pcg.next_uint32 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_pcg_range () =
  let g = Pcg.create ~seed:7L () in
  for _ = 1 to 10_000 do
    let v = Pcg.next_uint32 g in
    Alcotest.(check bool) "in range" true (v >= 0L && v < 0x100000000L)
  done

let test_pcg_below () =
  let g = Pcg.create ~seed:7L () in
  for _ = 1 to 10_000 do
    let v = Pcg.next_below g 10L in
    Alcotest.(check bool) "below 10" true (v >= 0L && v < 10L)
  done

let test_pcg_copy_independent () =
  let a = Pcg.create ~seed:3L () in
  let _ = Pcg.next_uint32 a in
  let b = Pcg.copy a in
  let va = Pcg.next_uint32 a and vb = Pcg.next_uint32 b in
  Alcotest.(check int64) "copy continues identically" va vb

(* Rationals *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalization () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  Alcotest.check rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  Alcotest.check rat "0/7 = 0" Rat.zero (Rat.make 0 7)

let test_rat_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  Alcotest.check rat "1/2+1/3" (Rat.make 5 6) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1 6) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1 6) (Rat.mul half third);
  Alcotest.check rat "1/2 / 1/3" (Rat.make 3 2) (Rat.div half third)

let test_rat_compare () =
  Alcotest.(check int) "1/2 < 2/3" (-1) (Rat.compare (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check int) "-1/2 < 1/3" (-1) (Rat.compare (Rat.make (-1) 2) (Rat.make 1 3));
  Alcotest.(check bool) "eq" true (Rat.equal (Rat.make 2 4) (Rat.make 1 2))

let test_rat_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Rat.floor (Rat.of_int 4));
  Alcotest.(check int) "ceil 4" 4 (Rat.ceil (Rat.of_int 4))

(* Overflow raises on the integer fast paths (both operands with
   denominator 1) and on the general path alike; no wrapped result ever
   comes back. *)
let test_rat_overflow () =
  let raises name f = Alcotest.check_raises name Rat.Overflow (fun () -> ignore (f ())) in
  let big = Rat.of_int max_int and small = Rat.of_int min_int in
  raises "max_int + 1" (fun () -> Rat.add big Rat.one);
  raises "1 + max_int" (fun () -> Rat.add Rat.one big);
  raises "min_int + -1" (fun () -> Rat.add small Rat.minus_one);
  raises "2^40 * 2^40" (fun () -> Rat.mul (Rat.of_int (1 lsl 40)) (Rat.of_int (1 lsl 40)));
  raises "max_int * 2" (fun () -> Rat.mul big (Rat.of_int 2));
  raises "min_int * -1" (fun () -> Rat.mul small Rat.minus_one);
  raises "-1 * min_int" (fun () -> Rat.mul Rat.minus_one small);
  raises "min_int - 1" (fun () -> Rat.sub small Rat.one);
  raises "0 - min_int" (fun () -> Rat.sub Rat.zero small);
  raises "max_int - -1" (fun () -> Rat.sub big Rat.minus_one);
  raises "neg min_int" (fun () -> Rat.neg small);
  (* General path: the cross-multiplied numerator overflows. *)
  raises "max_int/2 + 1/3" (fun () -> Rat.add (Rat.make max_int 2) (Rat.make 1 3));
  raises "max_int/2 - 1/3" (fun () -> Rat.sub (Rat.make max_int 2) (Rat.make 1 3));
  raises "max_int/2 * 3/5" (fun () -> Rat.mul (Rat.make max_int 2) (Rat.make 3 5));
  (* Results at the edge of the range are exact, not spurious overflows. *)
  Alcotest.check rat "max_int + 0" big (Rat.add big Rat.zero);
  Alcotest.check rat "max_int * 1" big (Rat.mul big Rat.one);
  Alcotest.check rat "-1 - min_int" big (Rat.sub Rat.minus_one small);
  Alcotest.check rat "max_int * -1" (Rat.of_int (-max_int)) (Rat.mul big Rat.minus_one)

(* The integer fast paths agree with normalising the exact integer
   result, including the 0 and +-1 shortcuts. *)
let test_rat_integer_fast_paths () =
  let vals = [ -7; -1; 0; 1; 2; 9 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let qa = Rat.of_int a and qb = Rat.of_int b in
          let name op = Printf.sprintf "%d %s %d" a op b in
          Alcotest.check rat (name "+") (Rat.make (a + b) 1) (Rat.add qa qb);
          Alcotest.check rat (name "-") (Rat.make (a - b) 1) (Rat.sub qa qb);
          Alcotest.check rat (name "*") (Rat.make (a * b) 1) (Rat.mul qa qb);
          Alcotest.(check int) (name "compare") (compare a b) (Rat.compare qa qb);
          if b <> 0 then Alcotest.check rat (name "/") (Rat.make a b) (Rat.div qa qb))
        vals)
    vals

let rat_qcheck =
  let gen =
    QCheck2.Gen.map2 (fun n d -> Rat.make n (if d = 0 then 1 else d))
      (QCheck2.Gen.int_range (-1000) 1000)
      (QCheck2.Gen.int_range (-50) 50)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"add commutative" ~count:500
         (QCheck2.Gen.pair gen gen)
         (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"mul distributes over add" ~count:500
         (QCheck2.Gen.triple gen gen gen)
         (fun (a, b, c) ->
           Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"floor <= x <= ceil" ~count:500 gen (fun a ->
           Rat.compare (Rat.of_int (Rat.floor a)) a <= 0
           && Rat.compare a (Rat.of_int (Rat.ceil a)) <= 0));
  ]

let () =
  Alcotest.run "util"
    [
      ( "pcg",
        [
          Alcotest.test_case "deterministic" `Quick test_pcg_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_pcg_seed_sensitivity;
          Alcotest.test_case "uint32 range" `Quick test_pcg_range;
          Alcotest.test_case "next_below range" `Quick test_pcg_below;
          Alcotest.test_case "copy independence" `Quick test_pcg_copy_independent;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "overflow" `Quick test_rat_overflow;
          Alcotest.test_case "integer fast paths" `Quick test_rat_integer_fast_paths;
        ]
        @ rat_qcheck );
    ]
