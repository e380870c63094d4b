(* LP/ILP solver tests: hand-checked problems, degenerate cases, and a
   brute-force cross-check on random small integer programs. *)

module Rat = Wcet_util.Rat
module Simplex = Wcet_lp.Simplex
module Ilp = Wcet_lp.Ilp
module Pcg = Wcet_util.Pcg

let q = Rat.of_int

let c coeffs op rhs =
  { Simplex.coeffs = List.map (fun (v, k) -> (v, q k)) coeffs; op; rhs = q rhs }

let solve_value problem =
  match Simplex.solve problem with
  | Simplex.Optimal (v, _) -> `Value v
  | Simplex.Unbounded -> `Unbounded
  | Simplex.Infeasible -> `Infeasible

let check_opt name expected problem =
  match solve_value problem with
  | `Value v -> Alcotest.(check string) name expected (Rat.to_string v)
  | `Unbounded -> Alcotest.failf "%s: unbounded" name
  | `Infeasible -> Alcotest.failf "%s: infeasible" name

let test_simple_max () =
  (* max x + y s.t. x <= 4, y <= 3, x + y <= 5 *)
  check_opt "corner" "5"
    {
      Simplex.num_vars = 2;
      maximize = [ (0, q 1); (1, q 1) ];
      constraints =
        [ c [ (0, 1) ] Simplex.Le 4; c [ (1, 1) ] Simplex.Le 3; c [ (0, 1); (1, 1) ] Simplex.Le 5 ];
    }

let test_fractional_optimum () =
  (* max x s.t. 2x <= 7 -> 7/2 *)
  check_opt "fractional" "7/2"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 2) ] Simplex.Le 7 ];
    }

let test_equality_constraints () =
  (* max 3x + 2y s.t. x + y = 10, x <= 6 -> x=6,y=4 -> 26 *)
  check_opt "equality" "26"
    {
      Simplex.num_vars = 2;
      maximize = [ (0, q 3); (1, q 2) ];
      constraints = [ c [ (0, 1); (1, 1) ] Simplex.Eq 10; c [ (0, 1) ] Simplex.Le 6 ];
    }

let test_ge_constraints () =
  (* max -x s.t. x >= 3  -> -3 (via maximize of negative coefficient) *)
  match
    Simplex.solve
      {
        Simplex.num_vars = 1;
        maximize = [ (0, Rat.minus_one) ];
        constraints = [ c [ (0, 1) ] Simplex.Ge 3 ];
      }
  with
  | Simplex.Optimal (v, a) ->
    Alcotest.(check string) "value" "-3" (Rat.to_string v);
    Alcotest.(check string) "assignment" "3" (Rat.to_string a.(0))
  | _ -> Alcotest.fail "expected optimum"

let test_unbounded () =
  match
    solve_value
      { Simplex.num_vars = 1; maximize = [ (0, q 1) ]; constraints = [ c [ (0, 1) ] Simplex.Ge 0 ] }
  with
  | `Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_infeasible () =
  match
    solve_value
      {
        Simplex.num_vars = 1;
        maximize = [ (0, q 1) ];
        constraints = [ c [ (0, 1) ] Simplex.Le 1; c [ (0, 1) ] Simplex.Ge 2 ];
      }
  with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_zero_objective () =
  check_opt "zero objective" "0"
    { Simplex.num_vars = 2; maximize = []; constraints = [ c [ (0, 1) ] Simplex.Le 5 ] }

let test_negative_rhs_normalization () =
  (* x - y <= -2 with y <= 3: max x -> x = 1 *)
  check_opt "negative rhs" "1"
    {
      Simplex.num_vars = 2;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (1, -1) ] Simplex.Le (-2); c [ (1, 1) ] Simplex.Le 3 ];
    }

(* ILP: fractional LP optimum, integer answer differs. *)
let test_ilp_rounding () =
  (* max x s.t. 2x <= 7, integer -> 3 *)
  match
    Ilp.solve
      {
        Simplex.num_vars = 1;
        maximize = [ (0, q 1) ];
        constraints = [ c [ (0, 2) ] Simplex.Le 7 ];
      }
  with
  | Ilp.Optimal (v, _) -> Alcotest.(check string) "ilp" "3" (Rat.to_string v)
  | _ -> Alcotest.fail "expected ILP optimum"

let test_ilp_knapsack () =
  (* max 5x + 4y s.t. 6x + 5y <= 10, x,y >= 0 integer -> x=1,y=0 -> 5? or y=2: 10y? 5*2=... 6x+5y<=10: y=2 gives 10, value 8 -> optimum 8 *)
  match
    Ilp.solve
      {
        Simplex.num_vars = 2;
        maximize = [ (0, q 5); (1, q 4) ];
        constraints = [ c [ (0, 6); (1, 5) ] Simplex.Le 10 ];
      }
  with
  | Ilp.Optimal (v, _) -> Alcotest.(check string) "knapsack" "8" (Rat.to_string v)
  | _ -> Alcotest.fail "expected ILP optimum"

(* Brute force cross-check: random ILPs with 3 vars in [0,6], random <=
   constraints with non-negative coefficients (always feasible at 0,
   bounded by a box). *)
let test_random_vs_bruteforce () =
  let rng = Pcg.create ~seed:31337L () in
  for _case = 1 to 150 do
    let nv = 3 in
    let box = 6 in
    let ncons = 2 + Pcg.next_int rng 3 in
    let objective = List.init nv (fun v -> (v, q (1 + Pcg.next_int rng 9))) in
    let cons =
      List.init ncons (fun _ ->
          let coeffs = List.init nv (fun v -> (v, Pcg.next_int rng 4)) in
          let rhs = 1 + Pcg.next_int rng 20 in
          c coeffs Simplex.Le rhs)
      @ List.init nv (fun v -> c [ (v, 1) ] Simplex.Le box)
    in
    let problem = { Simplex.num_vars = nv; maximize = objective; constraints = cons } in
    (* brute force over the box *)
    let best = ref 0 in
    for x = 0 to box do
      for y = 0 to box do
        for z = 0 to box do
          let vals = [| x; y; z |] in
          let ok =
            List.for_all
              (fun (cc : Simplex.constr) ->
                let lhs =
                  List.fold_left (fun acc (v, k) -> acc + (Rat.floor k * vals.(v))) 0 cc.Simplex.coeffs
                in
                lhs <= Rat.floor cc.Simplex.rhs)
              cons
          in
          if ok then begin
            let obj =
              List.fold_left (fun acc (v, k) -> acc + (Rat.floor k * vals.(v))) 0 objective
            in
            if obj > !best then best := obj
          end
        done
      done
    done;
    match Ilp.solve ~max_nodes:2000 problem with
    | Ilp.Optimal (v, _) ->
      if Rat.floor v <> !best then
        Alcotest.failf "ILP %s but brute force %d" (Rat.to_string v) !best
    | Ilp.Unbounded -> Alcotest.fail "unexpected unbounded"
    | Ilp.Infeasible -> Alcotest.fail "unexpected infeasible"
  done

(* --- canonicalization hardening: generated IPET constraints can mention
   an edge twice, with zero coefficients, or cancel away entirely --- *)

let test_duplicate_pairs_merge () =
  (* (x,1),(x,1) must behave exactly like (x,2): max x s.t. x + x <= 7. *)
  check_opt "duplicates merged" "7/2"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (0, 1) ] Simplex.Le 7 ];
    };
  (* Duplicates in the objective too: max (x + x) s.t. x <= 3 -> 6. *)
  check_opt "objective duplicates merged" "6"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1); (0, q 1) ];
      constraints = [ c [ (0, 1) ] Simplex.Le 3 ];
    }

let test_cancelled_rows () =
  (* x - x <= 3 is the constant assertion 0 <= 3: satisfied, dropped. *)
  check_opt "cancelled Le row dropped" "5"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (0, -1) ] Simplex.Le 3; c [ (0, 1) ] Simplex.Le 5 ];
    };
  (* x - x = 0 is 0 = 0: satisfied (an all-zero Eq row must not burn an
     artificial that can never leave the basis). *)
  check_opt "cancelled Eq row satisfied" "5"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (0, -1) ] Simplex.Eq 0; c [ (0, 1) ] Simplex.Le 5 ];
    };
  (* x - x >= 2 is 0 >= 2: trivially infeasible. *)
  match
    solve_value
      {
        Simplex.num_vars = 1;
        maximize = [ (0, q 1) ];
        constraints = [ c [ (0, 1); (0, -1) ] Simplex.Ge 2; c [ (0, 1) ] Simplex.Le 5 ];
      }
  with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "0 >= 2 must be infeasible"

let test_empty_objective_phase1 () =
  (* Empty objective over Ge/Eq rows: phase 1 does all the work and any
     feasible vertex is optimal at 0. *)
  check_opt "empty objective with artificials" "0"
    {
      Simplex.num_vars = 2;
      maximize = [];
      constraints = [ c [ (0, 1); (1, 1) ] Simplex.Eq 4; c [ (0, 1) ] Simplex.Ge 1 ];
    }

let test_out_of_range_variable_rejected () =
  let p =
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (1, 1) ] Simplex.Le 3 ];
    }
  in
  match Simplex.solve p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "variable 1 of a 1-variable problem must be rejected"

(* Property test: random box-bounded ILPs whose coefficient lists are
   mangled with duplicates and zero entries must agree with the naive
   enumerator (which sums raw pairs, duplicates and all). *)
let test_degenerate_random_vs_bruteforce () =
  let rng = Pcg.create ~seed:20110318L () in
  (* Split every pair (v, k) into (v, k - d) :: (v, d) and sprinkle zero
     coefficients, preserving the merged value. *)
  let mangle coeffs =
    List.concat_map
      (fun (v, k) ->
        let d = Pcg.next_int rng 7 - 3 in
        let zero = [ (Pcg.next_int rng 3, Rat.zero) ] in
        ((v, Rat.sub k (q d)) :: (v, q d) :: (if Pcg.next_int rng 2 = 0 then zero else [])))
      coeffs
  in
  for _case = 1 to 150 do
    let nv = 3 in
    let box = 6 in
    let ncons = 2 + Pcg.next_int rng 3 in
    let objective = List.init nv (fun v -> (v, q (1 + Pcg.next_int rng 9))) in
    let cons =
      List.init ncons (fun _ ->
          let coeffs = List.init nv (fun v -> (v, Pcg.next_int rng 4)) in
          let rhs = 1 + Pcg.next_int rng 20 in
          c coeffs Simplex.Le rhs)
      @ List.init nv (fun v -> c [ (v, 1) ] Simplex.Le box)
    in
    let mangled =
      List.map (fun (cc : Simplex.constr) -> { cc with Simplex.coeffs = mangle cc.Simplex.coeffs }) cons
    in
    let problem = { Simplex.num_vars = nv; maximize = mangle objective; constraints = mangled } in
    let eval coeffs vals =
      List.fold_left (fun acc (v, k) -> acc + (Rat.floor k * vals.(v))) 0 coeffs
    in
    let best = ref 0 in
    for x = 0 to box do
      for y = 0 to box do
        for z = 0 to box do
          let vals = [| x; y; z |] in
          if
            List.for_all
              (fun (cc : Simplex.constr) -> eval cc.Simplex.coeffs vals <= Rat.floor cc.Simplex.rhs)
              cons
          then begin
            let obj = eval objective vals in
            if obj > !best then best := obj
          end
        done
      done
    done;
    match Ilp.solve ~max_nodes:2000 problem with
    | Ilp.Optimal (v, _) ->
      if Rat.floor v <> !best then
        Alcotest.failf "mangled ILP %s but brute force %d" (Rat.to_string v) !best
    | Ilp.Unbounded -> Alcotest.fail "unexpected unbounded"
    | Ilp.Infeasible -> Alcotest.fail "unexpected infeasible"
  done

(* The sparse pivot against the dense reference ({!Simplex_ref}): on
   seeded random LPs — mixed Le/Ge/Eq rows, negative and zero right-hand
   sides, fractional coefficients, duplicated and all-zero rows, with and
   without a bounding box — both must return the same outcome, optimum and
   assignment after the same number of pivots. *)
let pivot_count () =
  match Wcet_obs.Metrics.find "simplex_pivots" with
  | Some (Wcet_obs.Metrics.Counter_value n) -> n
  | _ -> Alcotest.fail "simplex_pivots counter missing"

let random_lp rng =
  let nv = 1 + Pcg.next_int rng 6 in
  let coeff () =
    match Pcg.next_int rng 8 with
    | 0 | 1 | 2 -> Rat.zero
    | 3 -> Rat.make (Pcg.next_int rng 7 - 3) 2
    | _ -> q (Pcg.next_int rng 7 - 3)
  in
  let row () =
    let coeffs = List.init nv (fun v -> (v, coeff ())) in
    let op = match Pcg.next_int rng 3 with 0 -> Simplex.Le | 1 -> Simplex.Ge | _ -> Simplex.Eq in
    (* Degenerate vertices come from zero right-hand sides. *)
    let rhs = if Pcg.next_int rng 3 = 0 then Rat.zero else q (Pcg.next_int rng 21 - 6) in
    { Simplex.coeffs; op; rhs }
  in
  let rows = List.init (1 + Pcg.next_int rng 6) (fun _ -> row ()) in
  let rows = match rows with r :: _ when Pcg.next_int rng 4 = 0 -> r :: rows | _ -> rows in
  let box =
    if Pcg.next_int rng 4 = 0 then []
    else List.init nv (fun v -> c [ (v, 1) ] Simplex.Le (1 + Pcg.next_int rng 9))
  in
  {
    Simplex.num_vars = nv;
    maximize = List.init nv (fun v -> (v, coeff ()));
    constraints = rows @ box;
  }

let test_sparse_matches_dense_reference () =
  Wcet_obs.Obs.enable ();
  let rng = Pcg.create ~seed:20110318L () in
  let outcome_str = function
    | Simplex.Infeasible -> "infeasible"
    | Simplex.Unbounded -> "unbounded"
    | Simplex.Optimal (v, a) ->
      Printf.sprintf "optimal %s at [%s]" (Rat.to_string v)
        (String.concat "; " (Array.to_list (Array.map Rat.to_string a)))
  in
  let kinds = Hashtbl.create 3 in
  for case = 1 to 400 do
    let p = random_lp rng in
    let want, want_pivots = Simplex_ref.solve p in
    let before = pivot_count () in
    let got = Simplex.solve p in
    let got_pivots = pivot_count () - before in
    Alcotest.(check string) (Printf.sprintf "case %d outcome" case) (outcome_str want)
      (outcome_str got);
    Alcotest.(check int) (Printf.sprintf "case %d pivots" case) want_pivots got_pivots;
    Hashtbl.replace kinds (List.hd (String.split_on_char ' ' (outcome_str got))) ()
  done;
  Wcet_obs.Obs.disable ();
  (* The generator reaches every outcome. *)
  Alcotest.(check int) "outcome kinds covered" 3 (Hashtbl.length kinds)

(* IPET-shaped problem: a diamond with a loop. *)
let test_flow_shape () =
  (* Variables: e0 entry->A, e1 A->B, e2 A->C, e3 B->D, e4 C->D, e5 D->A
     (back edge), e6 D->exit. Conservation at A: e0 + e5 = e1 + e2; B: e1 =
     e3; C: e2 = e4; D: e3 + e4 = e5 + e6. Entry: e0 = 1. Loop bound: e5 <=
     9 * e0. Times: B heavy (100), C light (1). Max total time. *)
  let problem =
    {
      Simplex.num_vars = 7;
      maximize = [ (1, q 100); (2, q 1) ];
      (* count time at B via e1, at C via e2 *)
      constraints =
        [
          c [ (0, 1) ] Simplex.Eq 1;
          c [ (0, 1); (5, 1); (1, -1); (2, -1) ] Simplex.Eq 0;
          c [ (1, 1); (3, -1) ] Simplex.Eq 0;
          c [ (2, 1); (4, -1) ] Simplex.Eq 0;
          c [ (3, 1); (4, 1); (5, -1); (6, -1) ] Simplex.Eq 0;
          c [ (5, 1); (0, -9) ] Simplex.Le 0;
        ];
    }
  in
  match Ilp.solve problem with
  | Ilp.Optimal (v, _) ->
    (* 10 trips through A, all taking the heavy branch: 10 * 100 *)
    Alcotest.(check string) "flow optimum" "1000" (Rat.to_string v)
  | _ -> Alcotest.fail "expected optimum"

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "simple max" `Quick test_simple_max;
          Alcotest.test_case "fractional" `Quick test_fractional_optimum;
          Alcotest.test_case "equalities" `Quick test_equality_constraints;
          Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "duplicate pairs merge" `Quick test_duplicate_pairs_merge;
          Alcotest.test_case "cancelled rows" `Quick test_cancelled_rows;
          Alcotest.test_case "empty objective phase 1" `Quick test_empty_objective_phase1;
          Alcotest.test_case "out-of-range variable" `Quick
            test_out_of_range_variable_rejected;
          Alcotest.test_case "sparse pivot matches dense reference" `Quick
            test_sparse_matches_dense_reference;
          Alcotest.test_case "degenerate random vs brute force" `Quick
            test_degenerate_random_vs_bruteforce;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "rounding" `Quick test_ilp_rounding;
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "random vs brute force" `Quick test_random_vs_bruteforce;
          Alcotest.test_case "IPET flow shape" `Quick test_flow_shape;
        ] );
    ]
