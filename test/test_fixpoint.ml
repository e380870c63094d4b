(* Tests for the shared fixpoint engine (RPO priority worklist) and the
   domain pool: worklist determinism, widening-delay behavior, the exact
   transfer budget, pinned transfer counts on the quickstart program, and
   parallel-vs-serial equality of the sharded histogram and the E1/E2
   corpus tables. *)

module Fixpoint = Wcet_util.Fixpoint
module Parallel = Wcet_util.Parallel
module Ldivmod = Softarith.Ldivmod
module Harness = Wcet_experiments.Harness
module Corpus = Wcet_corpus.Corpus

(* Tiny reachability domain: node -> bit set of facts. *)
module Bits = struct
  type t = int

  let leq a b = a land b = a
  let join = ( lor )
  let widen = ( lor )
end

module FP = Fixpoint.Make (Bits)

let test_reachability () =
  (* Diamond with a back edge: 0 -> 1 -> 2 -> 3, 1 -> 3, 3 -> 1. *)
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2; 3 ]
    | 2 -> [ 3 ]
    | 3 -> [ 1 ]
    | _ -> []
  in
  let result =
    FP.solve
      {
        FP.num_nodes = 5;
        entries = [ (0, 1) ];
        succs;
        transfer = (fun _ s -> s);
        widening_points = (fun n -> n = 1);
        widening_delay = 2;
      }
  in
  List.iter
    (fun n -> Alcotest.(check (option int)) "reachable" (Some 1) (result.FP.in_state n))
    [ 0; 1; 2; 3 ];
  Alcotest.(check (option int)) "node 4 unreachable" None (result.FP.in_state 4)

let test_transfer_composition () =
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2 ]
    | _ -> []
  in
  let result =
    FP.solve
      {
        FP.num_nodes = 3;
        entries = [ (0, 1) ];
        succs;
        transfer = (fun n s -> s lor (1 lsl (n + 1)));
        widening_points = (fun _ -> false);
        widening_delay = 10;
      }
  in
  Alcotest.(check (option int)) "out of 0" (Some 0b11) (result.FP.out_state 0);
  Alcotest.(check (option int)) "in of 2" (Some 0b111) (result.FP.in_state 2);
  Alcotest.(check (option int)) "out of 2" (Some 0b1111) (result.FP.out_state 2)

let test_rpo_index () =
  (* 0 -> {1, 2}, 1 -> 3, 2 -> 3: entry first, join point last. *)
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 3 ]
    | _ -> []
  in
  let index = Fixpoint.rpo_index ~num_nodes:5 ~entries:[ 0 ] ~succs in
  Alcotest.(check int) "entry first" 0 index.(0);
  Alcotest.(check bool) "join after both branches" true
    (index.(3) > index.(1) && index.(3) > index.(2));
  Alcotest.(check int) "unreachable gets max_int" max_int index.(4)

(* A ladder of diamonds feeding a loop. *)
let ladder_problem () =
  (* Nodes 0..9 chain of diamonds; 10..12 loop: 10 -> 11 -> 12 -> 10. *)
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 3 ]
    | 3 -> [ 4; 5 ]
    | 4 -> [ 6 ]
    | 5 -> [ 6 ]
    | 6 -> [ 7; 8 ]
    | 7 -> [ 9 ]
    | 8 -> [ 9 ]
    | 9 -> [ 10 ]
    | 10 -> [ 11 ]
    | 11 -> [ 12 ]
    | 12 -> [ 10 ]
    | _ -> []
  in
  {
    FP.num_nodes = 13;
    entries = [ (0, 1) ];
    succs;
    transfer = (fun n s -> s lor (1 lsl (n mod 8)));
    widening_points = (fun n -> n = 10);
    widening_delay = 2;
  }

let test_deterministic () =
  let a = FP.solve (ladder_problem ()) in
  let b = FP.solve (ladder_problem ()) in
  Alcotest.(check int) "same transfer count" a.FP.transfers b.FP.transfers;
  for n = 0 to 12 do
    Alcotest.(check (option int))
      (Printf.sprintf "same state at %d" n)
      (a.FP.in_state n) (b.FP.in_state n)
  done

(* Widening delay: an unbounded counter loop must be widened to converge.
   The widening maps any strict growth to a sentinel "top". *)
module Counter = struct
  type t = int

  let top = 1_000_000
  let leq a b = a <= b
  let join = max
  let widen a b = if b > a then top else a
end

module FPC = Fixpoint.Make (Counter)

let counter_problem ~widening_delay =
  (* 0 -> 1 -> 2 -> 1 (loop incrementing a counter at node 2). *)
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2 ]
    | 2 -> [ 1 ]
    | _ -> []
  in
  {
    FPC.num_nodes = 3;
    entries = [ (0, 0) ];
    succs;
    transfer = (fun n s -> if n = 2 then min (s + 1) Counter.top else s);
    widening_points = (fun n -> n = 1);
    widening_delay;
  }

let test_widening_delay () =
  (* With a small delay the loop head reaches top quickly and the solver
     terminates; a longer delay admits more pre-widening refinement, so it
     can never take fewer transfers. *)
  let fast = FPC.solve (counter_problem ~widening_delay:2) in
  let slow = FPC.solve (counter_problem ~widening_delay:8) in
  Alcotest.(check (option int)) "widened to top (delay 2)" (Some Counter.top) (fast.FPC.in_state 1);
  Alcotest.(check (option int)) "widened to top (delay 8)" (Some Counter.top) (slow.FPC.in_state 1);
  Alcotest.(check bool)
    (Printf.sprintf "delay 2 (%d) <= delay 8 (%d) transfers" fast.FPC.transfers
       slow.FPC.transfers)
    true
    (fast.FPC.transfers <= slow.FPC.transfers)

let test_budget () =
  Alcotest.check_raises "budget exhausted"
    (Failure "fixpoint did not converge within budget") (fun () ->
      ignore (FPC.solve ~budget:3 (counter_problem ~widening_delay:1000)))

(* Pinned work on the paper's own artifact, report cache off: value and
   cache transfers of the interval analysis under both engines, the
   octagon transfers of the [auto] escalation, and the simplex pivots of
   its IPET solve. A schedule change
   that alters the pop order moves these numbers. *)
let test_quickstart_pinned_counts () =
  let module A = Wcet_core.Analyzer in
  Wcet_core.Report_cache.disable ();
  let program = Minic.Compile.compile Harness.quickstart_source in
  let counts engine domain =
    let r = A.analyze ~engine ~domain program in
    ( r.A.value.Wcet_value.Analysis.transfers,
      r.A.cache.Wcet_cache.Cache_analysis.transfers,
      match r.A.escalation with Some e -> e.A.ei_transfers | None -> 0 )
  in
  let expect name want got =
    Alcotest.(check (triple int int int)) name want got
  in
  expect "whole-program, interval" (32, 23, 0)
    (counts A.Whole_program Wcet_value.Analysis.Interval);
  expect "summary, interval" (32, 23, 0) (counts A.Summary Wcet_value.Analysis.Interval);
  let _, _, oct_wp = counts A.Whole_program Wcet_value.Analysis.Auto in
  let _, _, oct_sm = counts A.Summary Wcet_value.Analysis.Auto in
  Alcotest.(check int) "whole-program, auto: octagon transfers" 41 oct_wp;
  Alcotest.(check int) "summary, auto: octagon transfers" 41 oct_sm;
  (* The IPET solve under the CLI defaults: Bland's rule over the same
     tableau pivots the same number of times however the pivot is
     implemented. *)
  let pivots () =
    match Wcet_obs.Metrics.find "simplex_pivots" with
    | Some (Wcet_obs.Metrics.Counter_value n) -> n
    | _ -> Alcotest.fail "simplex_pivots counter missing"
  in
  Wcet_obs.Obs.enable ();
  let before = pivots () in
  ignore (A.analyze ~domain:Wcet_value.Analysis.Auto program);
  let after = pivots () in
  Wcet_obs.Obs.disable ();
  Alcotest.(check int) "summary, auto: simplex pivots" 12 (after - before)

(* --- component-scheduled solve (solve_plan) --- *)

let ladder_plan () =
  let p = ladder_problem () in
  let plan =
    Wcet_cfg.Callgraph.condense ~num_nodes:p.FP.num_nodes ~entries:[ 0 ] ~succs:p.FP.succs
  in
  (p, plan)

let test_plan_shape () =
  let p, plan = ladder_plan () in
  (* the loop 10-12 is one component; topological ids along every edge *)
  Alcotest.(check bool) "loop collapses to one component" true
    (plan.Fixpoint.plan_comp_of.(10) = plan.Fixpoint.plan_comp_of.(11)
    && plan.Fixpoint.plan_comp_of.(11) = plan.Fixpoint.plan_comp_of.(12));
  for u = 0 to 12 do
    List.iter
      (fun v ->
        if plan.Fixpoint.plan_comp_of.(u) <> plan.Fixpoint.plan_comp_of.(v) then
          Alcotest.(check bool)
            (Printf.sprintf "edge %d -> %d crosses upward" u v)
            true
            (plan.Fixpoint.plan_comp_of.(u) < plan.Fixpoint.plan_comp_of.(v)))
      (p.FP.succs u)
  done;
  (* levels partition the components; components of one level share no edge *)
  let seen = Array.concat (Array.to_list plan.Fixpoint.plan_levels) in
  Alcotest.(check int) "levels cover every component" (Array.length plan.Fixpoint.plan_comps)
    (Array.length seen)

let test_solve_plan_matches_solve () =
  let p, plan = ladder_plan () in
  let whole = FP.solve p in
  let sched, info = FP.solve_plan ~plan p in
  for n = 0 to 12 do
    Alcotest.(check (option int))
      (Printf.sprintf "same in-state at %d" n)
      (whole.FP.in_state n) (sched.FP.in_state n)
  done;
  (* cold bit-identity: the component schedule replays the global solve's
     pop order, so the transfer counts agree exactly *)
  Alcotest.(check int) "same transfer count" whole.FP.transfers sched.FP.transfers;
  Alcotest.(check bool) "nothing applied without a summary" true
    (Array.for_all not info.FP.applied)

(* Two loops behind one fork: 0 -> {1, 2}, 1 <-> 3, 2 <-> 4. The loops are
   independent components of one dependency level. *)
let fork_plan () =
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 3 -> [ 1 ]
    | 2 -> [ 4 ]
    | 4 -> [ 2 ]
    | _ -> []
  in
  let p =
    {
      FP.num_nodes = 5;
      entries = [ (0, 1) ];
      succs;
      transfer = (fun n s -> s lor (1 lsl n));
      widening_points = (fun n -> n = 1 || n = 2);
      widening_delay = 2;
    }
  in
  (p, Wcet_cfg.Callgraph.condense ~num_nodes:5 ~entries:[ 0 ] ~succs)

let test_solve_plan_budget_exact () =
  let p, plan = fork_plan () in
  let cold, info = FP.solve_plan ~plan p in
  let t = cold.FP.transfers in
  let transferring comps =
    Array.fold_left
      (fun k cid -> if info.FP.per_comp_transfers.(cid) > 0 then k + 1 else k)
      0 comps
  in
  Alcotest.(check bool) "a level holds two transferring components" true
    (Array.exists (fun comps -> transferring comps >= 2) plan.Fixpoint.plan_levels);
  Alcotest.check_raises
    (Printf.sprintf "budget %d raises" (t - 1))
    (Failure "fixpoint did not converge within budget")
    (fun () -> ignore (FP.solve_plan ~budget:(t - 1) ~plan p));
  let exact, _ = FP.solve_plan ~budget:t ~plan p in
  Alcotest.(check int) (Printf.sprintf "budget %d passes" t) t exact.FP.transfers

let test_solve_plan_applies_summary () =
  let p, plan = ladder_plan () in
  let first, info0 = FP.solve_plan ~plan p in
  (* offer every component its recorded rows, gated on the same external
     inputs — the warm-run contract of the scheduled analyses *)
  let summary ~comp ~input =
    let members = plan.Fixpoint.plan_comps.(comp) in
    if Array.for_all (fun m -> input m = info0.FP.ext_input.(m)) members then
      Some
        (fun m ->
          match (first.FP.in_state m, first.FP.out_state m) with
          | Some i, Some o -> Some (i, o)
          | _ -> None)
    else None
  in
  let second, info = FP.solve_plan ~summary ~plan p in
  Alcotest.(check int) "warm run transfers nothing" 0 second.FP.transfers;
  for n = 0 to 12 do
    Alcotest.(check (option int))
      (Printf.sprintf "state %d restored" n)
      (first.FP.in_state n) (second.FP.in_state n)
  done;
  Array.iteri
    (fun cid applied ->
      let active =
        Array.exists (fun m -> first.FP.in_state m <> None) plan.Fixpoint.plan_comps.(cid)
      in
      if active then
        Alcotest.(check bool) (Printf.sprintf "component %d applied" cid) true applied)
    info.FP.applied

(* --- domain pool --- *)

let test_pool_order () =
  let results = Parallel.map ~domains:4 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "ordered results" (Array.init 100 (fun i -> i * i)) results

let test_pool_serial_equals_parallel () =
  let f i = (i * 7919) mod 257 in
  Alcotest.(check (array int))
    "serial = parallel"
    (Parallel.map ~domains:1 64 f)
    (Parallel.map ~domains:4 64 f)

let test_pool_exception () =
  Alcotest.check_raises "first failing task wins" (Failure "task 3") (fun () ->
      ignore
        (Parallel.map ~domains:4 16 (fun i ->
             if i >= 3 then failwith (Printf.sprintf "task %d" i) else i)))

let test_pool_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~domains:4 0 (fun i -> i));
  Alcotest.(check (array int)) "single" [| 42 |] (Parallel.map ~domains:4 1 (fun _ -> 42))

(* --- parallel-vs-serial equality of the paper artifacts --- *)

let test_histogram_bit_identical () =
  (* >= 1024 samples so the sharded path (64 shards) is exercised. *)
  let serial = Ldivmod.histogram ~domains:1 ~samples:200_000 ~seed:20110318L () in
  let parallel = Ldivmod.histogram ~domains:4 ~samples:200_000 ~seed:20110318L () in
  Alcotest.(check bool) "histogram + witnesses identical" true (serial = parallel)

let render table =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  table ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_tables_domain_independent () =
  (* A slice of E1 and E2 through the real table renderer: the printed
     bytes must not depend on the domain count. *)
  let entries =
    List.filter_map Corpus.find [ "13.6"; "16.2"; "modes" ]
  in
  Alcotest.(check int) "have 3 entries" 3 (List.length entries);
  let serial = render (fun ppf -> Harness.table_of ~domains:1 entries ppf "slice") in
  let parallel = render (fun ppf -> Harness.table_of ~domains:4 entries ppf "slice") in
  Alcotest.(check string) "table bytes identical" serial parallel

let () =
  Alcotest.run "fixpoint"
    [
      ( "engine",
        [
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "transfer composition" `Quick test_transfer_composition;
          Alcotest.test_case "rpo index" `Quick test_rpo_index;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "widening delay" `Quick test_widening_delay;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "quickstart: pinned transfer counts" `Quick
            test_quickstart_pinned_counts;
        ] );
      ( "scheduled",
        [
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "solve_plan = solve (cold bit-identity)" `Quick
            test_solve_plan_matches_solve;
          Alcotest.test_case "budget is exact across a level" `Quick
            test_solve_plan_budget_exact;
          Alcotest.test_case "summary application" `Quick test_solve_plan_applies_summary;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick test_pool_order;
          Alcotest.test_case "serial = parallel" `Quick test_pool_serial_equals_parallel;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "empty and single" `Quick test_pool_empty_and_single;
        ] );
      ( "parallel-artifacts",
        [
          Alcotest.test_case "histogram bit-identical" `Quick test_histogram_bit_identical;
          Alcotest.test_case "E1/E2 tables domain-independent" `Quick
            test_tables_domain_independent;
        ] );
    ]
