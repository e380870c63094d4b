(* Tests of the benchmark's own machinery: the correctness gate must catch
   doctored results, allocation must be counted across domains, and span
   self times must partition a span tree. *)

open Perfbench

let complete wcet = Gate.Bound { complete = true; wcet }
let partial wcet = Gate.Bound { complete = false; wcet }
let is_ok = function Ok () -> true | Error _ -> false
let accepts msg r = Alcotest.(check bool) msg true (is_ok r)
let rejects msg r = Alcotest.(check bool) msg false (is_ok r)

let test_corpus_gate () =
  let expected = complete 500 in
  accepts "same bound, above the simulator" (Gate.corpus ~expected ~sim_max:(Some 400) (complete 500));
  accepts "bound equal to the simulator maximum"
    (Gate.corpus ~expected:(complete 400) ~sim_max:(Some 400) (complete 400));
  rejects "bound differs from the first op" (Gate.corpus ~expected ~sim_max:(Some 400) (complete 499));
  rejects "verdict differs from the first op"
    (Gate.corpus ~expected ~sim_max:(Some 400) (partial 500));
  rejects "complete bound below the simulator maximum"
    (Gate.corpus ~expected:(complete 300) ~sim_max:(Some 400) (complete 300));
  accepts "a partial bound is not compared with the simulator"
    (Gate.corpus ~expected:(partial 300) ~sim_max:(Some 400) (partial 300));
  accepts "an expected Analysis_failed"
    (Gate.corpus ~expected:(Gate.Rejected "E0302") ~sim_max:None (Gate.Rejected "E0302"));
  rejects "an unexpected Analysis_failed" (Gate.corpus ~expected ~sim_max:None (Gate.Rejected "E0302"));
  rejects "a different failure code"
    (Gate.corpus ~expected:(Gate.Rejected "E0302") ~sim_max:None (Gate.Rejected "E0201"));
  rejects "any other exception"
    (Gate.corpus ~expected:(Gate.Crashed "Not_found") ~sim_max:None (Gate.Crashed "Not_found"))

let test_incremental_gate () =
  accepts "revisit with the same bound" (Gate.revisit ~first:(complete 812) (complete 812));
  rejects "revisit with another bound" (Gate.revisit ~first:(complete 812) (complete 811));
  accepts "cached bound equals the cold one and covers the simulation"
    (Gate.version ~cold:(complete 812) ~sim_cycles:700 (complete 812));
  rejects "cached bound differs from the cold one"
    (Gate.version ~cold:(complete 812) ~sim_cycles:700 (complete 900));
  rejects "bound below the simulated cycles"
    (Gate.version ~cold:(complete 650) ~sim_cycles:700 (complete 650))

let test_histogram_gate () =
  let reference = ([ (0, 10); (1, 5) ], [ (1, (7, 9)) ]) in
  accepts "identical histogram" (Gate.histogram ~reference ([ (0, 10); (1, 5) ], [ (1, (7, 9)) ]));
  rejects "one count moved" (Gate.histogram ~reference ([ (0, 9); (1, 6) ], [ (1, (7, 9)) ]));
  rejects "another witness" (Gate.histogram ~reference ([ (0, 10); (1, 5) ], [ (1, (7, 8)) ]))

(* A spawned-and-joined domain allocating 3.0M words shows in
   Gc.quick_stat but not in the caller's Gc.minor_words. *)
let test_cross_domain_alloc () =
  let words = 3_000_000 in
  let before = Measure.gc () in
  let own = Gc.minor_words () in
  let d =
    Domain.spawn (fun () ->
        let r = ref [] in
        for i = 1 to words / 3 do
          r := [ i ]
        done;
        List.length !r)
  in
  ignore (Domain.join d);
  let seen = (Measure.diff (Measure.gc ()) before).Measure.words in
  Alcotest.(check bool)
    (Printf.sprintf "quick_stat sees the worker's %d words (saw %.0f)" words seen)
    true
    (seen >= float words);
  Alcotest.(check bool) "the caller's minor_words does not" true (Gc.minor_words () -. own < 1e5)

let event ?(tid = 0) name depth start dur =
  {
    Wcet_obs.Trace.name;
    cat = "phase";
    tid;
    depth;
    start_ns = Int64.of_int start;
    dur_ns = Int64.of_int dur;
    attrs = [];
  }

let test_self_times () =
  let t = Spans.create () in
  Spans.add t
    [
      event "value" 1 1_000_000 4_000_000;
      event "scc" 2 2_000_000 1_000_000;
      event "analyze" 0 0 10_000_000;
      event "decode" 1 6_000_000 2_000_000;
      event ~tid:1 "worker" 0 1_500_000 3_000_000;
    ];
  let close msg a b = Alcotest.(check (float 1e-9)) msg a b in
  close "analyze self" 4. (Spans.self_ms t "analyze");
  close "value self" 3. (Spans.self_ms t "value");
  close "another domain's span is not a child" 3. (Spans.self_ms t "worker");
  close "self times of the analyze tree sum to its duration" 10.
    (List.fold_left (fun acc n -> acc +. Spans.self_ms t n) 0. [ "analyze"; "value"; "scc"; "decode" ])

let test_stats () =
  let a = Array.init 1000 (fun i -> float (i + 1)) in
  Alcotest.(check (float 1e-9)) "median" 500.5 (Stats.median a);
  Alcotest.(check (float 1e-9)) "p99" 990. (Stats.percentile a 0.99);
  Alcotest.(check int) "samples beyond p99" 10 (Stats.count_above a (Stats.percentile a 0.99));
  Alcotest.(check (float 1e-9)) "geomean" 4. (Stats.geomean [ 2.; 8. ])

(* Every generated version compiles, and an edit changes exactly one
   constant. *)
let test_editgen () =
  for seed = 1 to 5 do
    let rng = Wcet_util.Pcg.create ~seed:(Int64.of_int seed) () in
    let shape = Editgen.shape rng in
    let v = Editgen.initial rng shape in
    let v' = Editgen.edit rng shape v in
    let src = Editgen.source shape v and src' = Editgen.source shape v' in
    Alcotest.(check bool) "the edit changes the source" true (src <> src');
    ignore (Minic.Compile.compile src);
    ignore (Minic.Compile.compile src')
  done

let () =
  Alcotest.run "perfbench"
    [
      ( "gate",
        [
          Alcotest.test_case "corpus_auto catches doctored results" `Quick test_corpus_gate;
          Alcotest.test_case "incremental_edit catches doctored results" `Quick
            test_incremental_gate;
          Alcotest.test_case "table1_histogram catches doctored results" `Quick
            test_histogram_gate;
        ] );
      ( "measure",
        [
          Alcotest.test_case "allocation is counted across domains" `Quick
            test_cross_domain_alloc;
          Alcotest.test_case "span self times" `Quick test_self_times;
          Alcotest.test_case "order statistics" `Quick test_stats;
        ] );
      ("editgen", [ Alcotest.test_case "versions compile" `Quick test_editgen ]);
    ]
