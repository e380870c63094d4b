(* Software-arithmetic tests: the OCaml reference models must agree with
   native integer arithmetic, and bit-for-bit with the compiled MiniC
   runtime running in the simulator. *)

module Ldivmod = Softarith.Ldivmod
module Softfloat = Softarith.Softfloat
module Compile = Minic.Compile
module Codegen = Minic.Codegen
module Sim = Pred32_sim.Simulator
module Hw_config = Pred32_hw.Hw_config
module Pcg = Wcet_util.Pcg

(* --- reference vs native integer division --- *)

let test_udivmod_exact () =
  let rng = Pcg.create ~seed:11L () in
  for _ = 1 to 20_000 do
    let a = Int64.to_int (Pcg.next_uint32 rng) in
    let b = Int64.to_int (Pcg.next_uint32 rng) in
    let b = if b = 0 then 1 else b in
    let r = Ldivmod.udivmod a b in
    if r.Ldivmod.quotient <> a / b || r.Ldivmod.remainder <> a mod b then
      Alcotest.failf "udivmod 0x%x / 0x%x = (0x%x, 0x%x), expected (0x%x, 0x%x)" a b
        r.Ldivmod.quotient r.Ldivmod.remainder (a / b) (a mod b)
  done

let test_udivmod_edge_cases () =
  let check a b =
    let r = Ldivmod.udivmod a b in
    Alcotest.(check int) (Printf.sprintf "q 0x%x/0x%x" a b) (a / b) r.Ldivmod.quotient;
    Alcotest.(check int) (Printf.sprintf "r 0x%x/0x%x" a b) (a mod b) r.Ldivmod.remainder
  in
  check 0 1;
  check 1 1;
  check 0xFFFFFFFF 1;
  check 0xFFFFFFFF 0xFFFFFFFF;
  check 0xFFFFFFFF 2;
  check 0xFFFFFFFF 0x10000;
  check 0xFFFFFFFF 0xFFFF;
  check 0x12345678 0x10000;
  check 5 7;
  (* division by zero convention *)
  let r = Ldivmod.udivmod 42 0 in
  Alcotest.(check int) "q by zero" 0xFFFFFFFF r.Ldivmod.quotient;
  Alcotest.(check int) "r by zero" 42 r.Ldivmod.remainder

let test_iterations_agrees_with_udivmod () =
  (* [iterations] is a separate allocation-free implementation of the
     correction-pass count; it must agree with [udivmod] everywhere. *)
  let rng = Pcg.create ~seed:31L () in
  for _ = 1 to 20_000 do
    let a = Pcg.next_uint32_int rng in
    let b = Pcg.next_uint32_int rng in
    Alcotest.(check int)
      (Printf.sprintf "iterations 0x%x / 0x%x" a b)
      (Ldivmod.udivmod a b).Ldivmod.iterations (Ldivmod.iterations a b)
  done;
  (* Stress the slow path: divisors just above 2^16 give the long tails. *)
  for _ = 1 to 20_000 do
    let a = Pcg.next_uint32_int rng in
    let b = 0x10000 + Pcg.next_int rng 0x20000 in
    Alcotest.(check int)
      (Printf.sprintf "iterations 0x%x / 0x%x" a b)
      (Ldivmod.udivmod a b).Ldivmod.iterations (Ldivmod.iterations a b)
  done;
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "iterations 0x%x / 0x%x" a b)
        (Ldivmod.udivmod a b).Ldivmod.iterations (Ldivmod.iterations a b))
    [ (42, 0); (0, 1); (0xFFFFFFFF, 0x10000); (0xFFFFFFFF, 0x10001); (0xFFFFFFFF, 0xFFFF) ]

(* The histogram calls [iterations] once per sample, so it must not
   allocate. The inputs are drawn first; the measured loop only calls it.
   The empty measurement subtracts what reading the counter costs. *)
let test_iterations_allocation_free () =
  let rng = Pcg.create ~seed:37L () in
  let n = 10_000 in
  let a = Array.init n (fun _ -> Pcg.next_uint32_int rng) in
  let b = Array.init n (fun i -> if i land 1 = 0 then Pcg.next_uint32_int rng else 0x10000 + i) in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + Ldivmod.iterations a.(i) b.(i)
  done;
  let w2 = Gc.minor_words () in
  let words = w2 -. w1 -. (w1 -. w0) in
  Alcotest.(check bool) "some slow-path divisions" true (!total > n / 2);
  Alcotest.(check (float 0.))
    (Printf.sprintf "minor words over %d calls (%.1f per call)" n (words /. float_of_int n))
    0. words

let test_iterations_shape () =
  (* The Table 1 phenomenon on a modest sample: almost all inputs take 1
     iteration, small divisors take 0, a tail exists. *)
  let hist, _ = Ldivmod.histogram ~samples:200_000 ~seed:2011L () in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  let count n = Option.value ~default:0 (List.assoc_opt n hist) in
  Alcotest.(check int) "total" 200_000 total;
  (* 1 iteration dominates (paper: > 99.8 %) *)
  Alcotest.(check bool) "1 dominates" true (float_of_int (count 1) /. float_of_int total > 0.99);
  (* 0 iterations: divisor below 2^16, probability ~1.5e-5: rare *)
  Alcotest.(check bool) "0 is rare" true (count 0 < 100);
  (* iterations 2 exists but is ~1e-3 *)
  Alcotest.(check bool) "2 occurs" true (count 2 > 0);
  Alcotest.(check bool) "2 is rare" true (float_of_int (count 2) /. float_of_int total < 0.01)

let test_iterations_zero_iff_small_divisor () =
  let rng = Pcg.create ~seed:5L () in
  for _ = 1 to 5_000 do
    let a = Int64.to_int (Pcg.next_uint32 rng) in
    let b = Int64.to_int (Pcg.next_uint32 rng) in
    let n = Ldivmod.iterations a b in
    if b <> 0 && b < 0x10000 then Alcotest.(check int) "small divisor fast path" 0 n
    else if b >= 0x10000 && a >= b then
      Alcotest.(check bool) "big divisor iterates" true (n >= 1)
  done

let test_restoring_fixed_iterations () =
  let rng = Pcg.create ~seed:6L () in
  for _ = 1 to 2_000 do
    let a = Int64.to_int (Pcg.next_uint32 rng) in
    let b = Int64.to_int (Pcg.next_uint32 rng) in
    let b = if b = 0 then 1 else b in
    let r = Ldivmod.udivmod_restoring a b in
    Alcotest.(check int) "always 32" 32 r.Ldivmod.iterations;
    Alcotest.(check int) "quotient" (a / b) r.Ldivmod.quotient;
    Alcotest.(check int) "remainder" (a mod b) r.Ldivmod.remainder
  done

(* The corpus annotates __udivmod32 with 'bound 40'. Validate that bound
   against the adversarial corner: small top-16 divisors with maximal
   dividends converge slowest (each pass shrinks the remainder by at least
   half when d = 1). *)
let test_iteration_bound_40 () =
  let worst = ref 0 in
  for b_top = 1 to 4 do
    for e = 0 to 64 do
      List.iter
        (fun a ->
          let b = (b_top lsl 16) + e in
          let n = Ldivmod.iterations a b in
          if n > !worst then worst := n)
        [ 0xFFFFFFFF; 0xFFFFFFFE; 0xFFFF0000; 0xAAAAAAAA; 0x80000000 ]
    done
  done;
  (* plus a broad random sweep *)
  let rng = Pcg.create ~seed:404L () in
  for _ = 1 to 100_000 do
    let a = Int64.to_int (Pcg.next_uint32 rng) in
    let b = 0x10000 + Pcg.next_int rng 0x40000 in
    let n = Ldivmod.iterations a b in
    if n > !worst then worst := n
  done;
  Alcotest.(check bool) (Printf.sprintf "worst observed %d <= 40" !worst) true (!worst <= 40);
  Alcotest.(check bool) "adversarial tail exists" true (!worst >= 10)

let test_histogram_deterministic () =
  let h1, _ = Ldivmod.histogram ~samples:10_000 ~seed:7L () in
  let h2, _ = Ldivmod.histogram ~samples:10_000 ~seed:7L () in
  Alcotest.(check bool) "same histogram" true (h1 = h2)

(* --- reference vs simulated MiniC runtime --- *)

let divmod_driver =
  "unsigned a; unsigned b; unsigned out_q; unsigned out_r; \
   int main() { out_q = a / b; out_r = a % b; return 0; }"

let test_divmod_matches_simulated_runtime () =
  let program =
    Compile.compile ~options:{ Codegen.default_options with Codegen.soft_div = true } divmod_driver
  in
  let rng = Pcg.create ~seed:21L () in
  let cases =
    [ (0, 1); (1, 1); (0xFFFFFFFF, 0xFFFFFFFF); (0xFFFFFFFF, 0x10000); (42, 0); (5, 7) ]
    @ List.init 120 (fun _ ->
          (Int64.to_int (Pcg.next_uint32 rng), Int64.to_int (Pcg.next_uint32 rng)))
  in
  List.iter
    (fun (a, b) ->
      let sim = Sim.create Hw_config.no_hw_div program in
      Sim.poke_symbol sim "a" 0 a;
      Sim.poke_symbol sim "b" 0 b;
      (match Sim.run sim with
      | Sim.Halted _ -> ()
      | o -> Alcotest.failf "divmod driver did not halt: %a" Sim.pp_outcome o);
      let reference = Ldivmod.udivmod a b in
      Alcotest.(check int)
        (Printf.sprintf "q 0x%x/0x%x" a b)
        reference.Ldivmod.quotient (Sim.peek_symbol sim "out_q" 0);
      Alcotest.(check int)
        (Printf.sprintf "r 0x%x/0x%x" a b)
        reference.Ldivmod.remainder (Sim.peek_symbol sim "out_r" 0);
      Alcotest.(check int)
        (Printf.sprintf "iters 0x%x/0x%x" a b)
        reference.Ldivmod.iterations
        (Sim.peek_symbol sim "__ldivmod_iters" 0))
    cases

let float_driver =
  "float fa; float fb; float r_add; float r_sub; float r_mul; float r_div; \
   int r_lt; int r_le; int r_eq; int i_in; float r_itof; int r_ftoi; \
   int main() { r_add = fa + fb; r_sub = fa - fb; r_mul = fa * fb; r_div = fa / fb; \
   r_lt = fa < fb; r_le = fa <= fb; r_eq = fa == fb; \
   r_itof = (float)i_in; r_ftoi = (int)fa; return 0; }"

let random_float_bits rng =
  let sign = if Pcg.next_bool rng then 0x80000000 else 0 in
  let exp = 64 + Pcg.next_int rng 128 in
  let man = Int64.to_int (Pcg.next_below rng 0x800000L) in
  sign lor (exp lsl 23) lor man

let test_float_matches_simulated_runtime () =
  let program = Compile.compile float_driver in
  let rng = Pcg.create ~seed:31L () in
  for _ = 1 to 80 do
    let fa = random_float_bits rng and fb = random_float_bits rng in
    let sim = Sim.create Hw_config.default program in
    Sim.poke_symbol sim "fa" 0 fa;
    Sim.poke_symbol sim "fb" 0 fb;
    Sim.poke_symbol sim "i_in" 0 (Pcg.next_int rng 100000 - 50000);
    (match Sim.run sim with
    | Sim.Halted _ -> ()
    | o -> Alcotest.failf "float driver did not halt: %a" Sim.pp_outcome o);
    let i_in =
      let v = Sim.peek_symbol sim "i_in" 0 in
      Pred32_isa.Word.to_signed v
    in
    let checks =
      [
        ("add", Softfloat.f_add fa fb, "r_add");
        ("sub", Softfloat.f_sub fa fb, "r_sub");
        ("mul", Softfloat.f_mul fa fb, "r_mul");
        ("div", Softfloat.f_div fa fb, "r_div");
        ("lt", Softfloat.f_lt fa fb, "r_lt");
        ("le", Softfloat.f_le fa fb, "r_le");
        ("eq", Softfloat.f_eq fa fb, "r_eq");
        ("itof", Softfloat.f_from_int i_in, "r_itof");
        ("ftoi", Softfloat.f_to_int fa land 0xFFFFFFFF, "r_ftoi");
      ]
    in
    List.iter
      (fun (name, expected, sym) ->
        Alcotest.(check int)
          (Printf.sprintf "%s of %08x %08x" name fa fb)
          expected (Sim.peek_symbol sim sym 0))
      checks
  done

(* --- reference accuracy against native floats --- *)

let test_float_accuracy () =
  let rng = Pcg.create ~seed:41L () in
  for _ = 1 to 2_000 do
    (* positive, same-magnitude values: no catastrophic cancellation *)
    let x = 1.0 +. (float_of_int (Pcg.next_int rng 1000000) /. 1000.0) in
    let y = 1.0 +. (float_of_int (Pcg.next_int rng 1000000) /. 1000.0) in
    let bx = Softfloat.bits_of_float x and by = Softfloat.bits_of_float y in
    let close ?(tol = 1e-3) label soft native =
      let v = Softfloat.float_of_bits soft in
      let err = abs_float (v -. native) /. max 1e-9 (abs_float native) in
      if err > tol then Alcotest.failf "%s: soft %g vs native %g (err %g)" label v native err
    in
    close "add" (Softfloat.f_add bx by) (x +. y) ~tol:1e-4;
    close "mul" (Softfloat.f_mul bx by) (x *. y) ~tol:1e-3;
    close "div" (Softfloat.f_div bx by) (x /. y) ~tol:1e-3;
    Alcotest.(check int) "lt agrees" (if x < y then 1 else 0) (Softfloat.f_lt bx by)
  done

let test_float_conversions () =
  List.iter
    (fun i ->
      let bits = Softfloat.f_from_int i in
      Alcotest.(check int)
        (Printf.sprintf "roundtrip %d" i)
        i
        (Softfloat.f_to_int bits))
    [ 0; 1; -1; 2; 7; -100; 1000; 123456; -8388608; 8388607 ]

let () =
  Alcotest.run "softarith"
    [
      ( "ldivmod",
        [
          Alcotest.test_case "exact division" `Quick test_udivmod_exact;
          Alcotest.test_case "edge cases" `Quick test_udivmod_edge_cases;
          Alcotest.test_case "iteration shape (Table 1)" `Quick test_iterations_shape;
          Alcotest.test_case "iterations agrees with udivmod" `Quick
            test_iterations_agrees_with_udivmod;
          Alcotest.test_case "fast path iff small divisor" `Quick
            test_iterations_zero_iff_small_divisor;
          Alcotest.test_case "restoring baseline" `Quick test_restoring_fixed_iterations;
          Alcotest.test_case "annotation bound 40 is safe" `Quick test_iteration_bound_40;
          Alcotest.test_case "histogram deterministic" `Quick test_histogram_deterministic;
          Alcotest.test_case "iterations allocation-free" `Quick test_iterations_allocation_free;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "divmod vs simulated runtime" `Quick
            test_divmod_matches_simulated_runtime;
          Alcotest.test_case "float vs simulated runtime" `Quick
            test_float_matches_simulated_runtime;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "vs native floats" `Quick test_float_accuracy;
          Alcotest.test_case "int conversions" `Quick test_float_conversions;
        ] );
    ]
