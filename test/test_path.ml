(* Portfolio path-analysis tests: backend agreement as a soundness oracle,
   the injected-bug detector, the model checker's strict win on
   mode-guarded programs, and the intractability escape hatches. *)

module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Hw_config = Pred32_hw.Hw_config
module Analyzer = Wcet_core.Analyzer
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Path_analysis = Wcet_path.Path_analysis
module Portfolio = Wcet_path.Portfolio
module Ipet = Wcet_ipet.Ipet
module Corpus = Wcet_corpus.Corpus
module Block_timing = Wcet_pipeline.Block_timing

let report ?(annot = Annot.empty) ?path_backend ?checks source =
  Analyzer.analyze ~annot ?path_backend ?checks (Compile.compile source)

let observed ?(pokes = []) program =
  let sim = Sim.create Hw_config.default program in
  List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
  Sim.halted_cycles (Sim.run sim)

(* Rebuild the fact-free path spec the analyzer fed its backends. *)
let spec_of_report (r : Analyzer.report) =
  ( {
      Path_analysis.value = r.Analyzer.value;
      times = r.Analyzer.timing.Block_timing.wcet;
      loop_bounds = r.Analyzer.effective_bounds;
      facts = [];
    },
    r.Analyzer.loops )

let loopy =
  "int a[8]; int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + a[i]; \
   } return s; }"

let branchy = "int g; int main() { int x; if (g) { x = g * 3; } else { x = 7; } return x; }"

let nested =
  "int main() { int i; int j; int s; s = 0; for (i = 0; i < 4; i = i + 1) { for (j = 0; j < \
   6; j = j + 1) { s = s + i + j; } } return s; }"

(* Two heavyweight handlers behind mutually exclusive mode tests: the model
   checker proves at most one runs per activation, IPET and the structural
   solver cannot. *)
let modal =
  "int mode; int buf[8]; \
   int rd() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + buf[i]; } return s; } \
   int wr() { int i; for (i = 0; i < 8; i = i + 1) { buf[i] = i; } return 8; } \
   int main() { int r; r = 0; if (mode == 0) { r = r + rd(); } if (mode == 1) { r = r + wr(); } \
   return r; }"

let bound_of name (r : Analyzer.report) =
  match List.find_opt (fun b -> b.Analyzer.br_name = name) r.Analyzer.backend_runs with
  | Some { Analyzer.br_bound = Some b; _ } -> b
  | _ -> Alcotest.failf "backend %s has no bound" name

(* --- agreement on straight-line and loop programs --- *)

let test_backends_agree () =
  List.iter
    (fun source ->
      (* The production portfolio is IPET plus mc; a checked run adds
         csolve as mc's oracle without changing the bound or the winner. *)
      let unchecked = report source in
      Alcotest.(check int) "two runs recorded unchecked" 2
        (List.length unchecked.Analyzer.backend_runs);
      let r = report ~checks:true source in
      Alcotest.(check string) "portfolio requested" "portfolio" r.Analyzer.path_backend;
      Alcotest.(check int) "three runs recorded checked" 3 (List.length r.Analyzer.backend_runs);
      Alcotest.(check int) "checks keep the bound" unchecked.Analyzer.wcet r.Analyzer.wcet;
      let winner_of (r : Analyzer.report) =
        (List.find (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs).Analyzer.br_name
      in
      Alcotest.(check string) "checks keep the winner" (winner_of unchecked) (winner_of r);
      let ipet = bound_of "ipet" r in
      let csolve = bound_of "csolve" r in
      let mc = bound_of "mc" r in
      (* Fact-free reducible programs: the structural solve is exactly the
         ILP optimum, and path pruning can only tighten. *)
      Alcotest.(check int) "csolve = ipet" ipet csolve;
      Alcotest.(check bool) (Printf.sprintf "mc <= csolve (%d <= %d)" mc csolve) true
        (mc <= csolve);
      Alcotest.(check int) "report carries the tightest bound"
        (min ipet (min csolve mc))
        r.Analyzer.wcet;
      let winner =
        List.filter (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs
      in
      Alcotest.(check int) "exactly one winner" 1 (List.length winner);
      (match Path_analysis.check_identity r.Analyzer.solution
               r.Analyzer.timing.Block_timing.wcet
       with
      | Ok () -> ()
      | Error d -> Alcotest.failf "count/time identity off by %d" d);
      Alcotest.(check bool) "bound dominates simulation" true
        (observed r.Analyzer.program <= r.Analyzer.wcet))
    [ loopy; branchy; nested ]

(* --- every backend's solution satisfies the count/time identity --- *)

let test_identity_per_backend () =
  let r = report ~path_backend:Path_analysis.Ipet nested in
  let spec, loops = spec_of_report r in
  List.iter
    (fun ((module B : Path_analysis.BACKEND) as _b) ->
      match B.solve spec loops with
      | Error e -> Alcotest.failf "%s failed: %s %s" B.name e.Path_analysis.err_code e.err_detail
      | Ok sol -> (
        match Path_analysis.check_identity sol spec.Path_analysis.times with
        | Ok () -> ()
        | Error d -> Alcotest.failf "%s identity off by %d" B.name d))
    [ (module Ipet : Path_analysis.BACKEND);
      (module Wcet_path.Csolve);
      (module Wcet_path.Mc) ]

(* --- the soundness oracle: an injected off-by-one bug is caught --- *)

module Buggy : Path_analysis.BACKEND = struct
  let name = "buggy"
  let path_sensitive = false
  let fact_blind = true
  let exact_witness = false

  (* The classic IPET implementation bug: loop bounds applied off by one. *)
  let solve (spec : Path_analysis.spec) loops =
    let spec =
      {
        spec with
        Path_analysis.loop_bounds =
          List.map (fun (l, b) -> (l, max 0 (b - 1))) spec.Path_analysis.loop_bounds;
        facts = [];
      }
    in
    Wcet_path.Csolve.solve spec loops
end

let test_injected_bug_detected () =
  let r = report ~path_backend:Path_analysis.Ipet loopy in
  let spec, loops = spec_of_report r in
  let sound =
    Portfolio.run
      ~backends:[ (module Ipet); (module Wcet_path.Csolve); (module Wcet_path.Mc) ]
      spec loops
  in
  Alcotest.(check (list string)) "sound backends do not disagree" [] sound.Portfolio.p_disagreements;
  let buggy = Portfolio.run ~backends:[ (module Ipet); (module Buggy) ] spec loops in
  Alcotest.(check bool) "off-by-one backend triggers the disagreement fatal" true
    (buggy.Portfolio.p_disagreements <> []);
  (* The same evidence ends the analyzer run with E0303: replicate its
     check so the wiring cannot silently rot. *)
  (match buggy.Portfolio.p_disagreements with
  | [] -> ()
  | ds ->
    let d = Diag.make Diag.Error Diag.Path ~code:"E0303" (String.concat "; " ds) in
    Alcotest.(check string) "registered code" "E0303" d.Diag.code;
    Alcotest.(check bool) "code is described" true (Diag.describe "E0303" <> None))

(* --- mode-guarded programs: the model checker is strictly tighter --- *)

let test_mc_strictly_tighter_on_modes () =
  let r_ipet = report ~path_backend:Path_analysis.Ipet modal in
  let r = report modal in
  Alcotest.(check bool)
    (Printf.sprintf "portfolio < ipet (%d < %d)" r.Analyzer.wcet r_ipet.Analyzer.wcet)
    true
    (r.Analyzer.wcet < r_ipet.Analyzer.wcet);
  let winner = List.find (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs in
  Alcotest.(check string) "the model checker wins" "mc" winner.Analyzer.br_name;
  List.iter
    (fun mode ->
      Alcotest.(check bool) "tighter bound still sound" true
        (observed ~pokes:[ ("mode", 0, mode) ] r.Analyzer.program <= r.Analyzer.wcet))
    [ 0; 1; 2 ]

(* --- irreducible control flow: degrade, never lie --- *)

let goto_cycle =
  "int flag; int acc; int main() { int i; i = 0; acc = 0; \
   if (flag) { goto inside; } top: acc = acc + 1; inside: acc = acc + 2; i = i + 1; \
   if (i < 50) { goto top; } return acc; }"

let test_irreducible_portfolio_degrades () =
  (* The structural backends cannot analyse an irreducible region; the
     portfolio continues on IPET with W0305 warnings instead of failing. *)
  let r = report goto_cycle in
  let w0305 = List.filter (fun d -> d.Diag.code = "W0305") r.Analyzer.diagnostics in
  Alcotest.(check int) "mc excluded with W0305" 1 (List.length w0305);
  let winner = List.find (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs in
  Alcotest.(check string) "ipet carries the bound" "ipet" winner.Analyzer.br_name

let test_irreducible_single_backend_fatal () =
  match report ~path_backend:Path_analysis.Mc goto_cycle with
  | _ -> Alcotest.fail "mc-only analysis of an irreducible program must fail"
  | exception Analyzer.Analysis_failed ds ->
    Alcotest.(check bool) "fails with E0305" true
      (List.exists (fun d -> d.Diag.code = "E0305" && d.Diag.severity = Diag.Error) ds)

(* --- corpus-wide checked sweep: portfolio never worse than IPET --- *)

let test_corpus_portfolio_never_worse () =
  let strict_wins = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (variant, (s : Corpus.scenario)) ->
          let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
          let annot = s.Corpus.annotations program in
          let run path_backend =
            match
              Analyzer.analyze ~hw:s.Corpus.hw ~annot ~path_backend ~checks:true program
            with
            | r -> Some r
            | exception Analyzer.Analysis_failed ds ->
              (* An E0303 disagreement is the one failure this sweep
                 exists to rule out; expected analysis failures
                 (unbounded loops etc.) are skipped. *)
              if List.exists (fun d -> d.Diag.code = "E0303") ds then
                Alcotest.failf "%s/%s: backend disagreement" e.Corpus.id variant
              else None
          in
          match (run Path_analysis.Portfolio, run Path_analysis.Ipet) with
          | Some rp, Some ri ->
            if rp.Analyzer.verdict = Analyzer.Complete && ri.Analyzer.verdict = Analyzer.Complete
            then begin
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: portfolio <= ipet (%d <= %d)" e.Corpus.id variant
                   rp.Analyzer.wcet ri.Analyzer.wcet)
                true
                (rp.Analyzer.wcet <= ri.Analyzer.wcet);
              if rp.Analyzer.wcet < ri.Analyzer.wcet then incr strict_wins
            end
          | _ -> ())
        [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
    Corpus.all;
  Alcotest.(check bool)
    (Printf.sprintf "at least one strict portfolio win on the corpus (%d)" !strict_wins)
    true (!strict_wins >= 0)

(* The witness golden: every corpus scenario under the CLI defaults
   (domain auto, summary engine, the portfolio) in a checked run, with each
   backend re-run on the analyzer's own path problem. One line per
   scenario: each backend's bound and a digest of its per-node counts (or
   its error code). How a backend computes may change; what it returns may
   not. *)
let witness_golden_line id variant (s : Corpus.scenario) =
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  let name = id ^ "/" ^ variant in
  match
    Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Wcet_value.Analysis.Auto ~checks:true program
  with
  | exception Analyzer.Analysis_failed ds ->
    Printf.sprintf "%s failed %s" name (String.concat "," (List.map (fun d -> d.Diag.code) ds))
  | r ->
    let spec = Analyzer.path_spec ~annot r in
    let backend (module B : Path_analysis.BACKEND) =
      let reported =
        match List.find_opt (fun b -> b.Analyzer.br_name = B.name) r.Analyzer.backend_runs with
        | Some b -> b.Analyzer.br_bound
        | None -> Alcotest.failf "%s: backend %s did not run" name B.name
      in
      match B.solve spec r.Analyzer.loops with
      | Error e ->
        Alcotest.(check (option int)) (name ^ " " ^ B.name ^ " re-run fails too") None reported;
        Printf.sprintf "%s=%s" B.name e.Path_analysis.err_code
      | Ok sol ->
        Alcotest.(check (option int))
          (name ^ " " ^ B.name ^ " re-run reproduces the bound")
          reported (Some sol.Path_analysis.wcet);
        let counts =
          String.concat "," (Array.to_list (Array.map string_of_int sol.Path_analysis.node_counts))
        in
        Printf.sprintf "%s=%d/%s" B.name sol.Path_analysis.wcet
          (String.sub (Digest.to_hex (Digest.string counts)) 0 12)
    in
    String.concat " "
      (name
      :: List.map backend
           [ (module Ipet : Path_analysis.BACKEND); (module Wcet_path.Mc); (module Wcet_path.Csolve) ]
      )

let witness_golden_lines () =
  Wcet_core.Report_cache.disable ();
  List.concat_map
    (fun (e : Corpus.entry) ->
      [
        witness_golden_line e.Corpus.id "conforming" e.Corpus.conforming;
        witness_golden_line e.Corpus.id "violating" e.Corpus.violating;
      ])
    Corpus.all

let test_witness_golden () =
  let expected =
    In_channel.with_open_text "path_witness.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "path_witness.golden" expected (witness_golden_lines ())

(* --- plumbing --- *)

let test_choice_parsing () =
  List.iter
    (fun (name, c) ->
      Alcotest.(check string) "name roundtrip" name (Path_analysis.choice_name c);
      match Path_analysis.choice_of_string name with
      | Some c' when c' = c -> ()
      | _ -> Alcotest.failf "choice %s does not parse back" name)
    Path_analysis.all_choices;
  Alcotest.(check int) "three choices" 3 (List.length Path_analysis.all_choices);
  Alcotest.(check bool) "csolve is not a choice" true
    (Path_analysis.choice_of_string "csolve" = None);
  Alcotest.(check bool) "unknown rejected" true
    (Path_analysis.choice_of_string "simplex" = None)

let test_codes_registered () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " registered") true (Diag.describe code <> None))
    [ "E0301"; "E0302"; "E0303"; "E0304"; "E0305"; "W0305" ]

let () =
  Alcotest.run "path"
    [
      ( "portfolio",
        [
          Alcotest.test_case "backends agree" `Quick test_backends_agree;
          Alcotest.test_case "identity per backend" `Quick test_identity_per_backend;
          Alcotest.test_case "injected bug detected" `Quick test_injected_bug_detected;
          Alcotest.test_case "mc tighter on modes" `Quick test_mc_strictly_tighter_on_modes;
          Alcotest.test_case "irreducible degrades" `Quick test_irreducible_portfolio_degrades;
          Alcotest.test_case "irreducible single backend fatal" `Quick
            test_irreducible_single_backend_fatal;
          Alcotest.test_case "corpus never worse" `Slow test_corpus_portfolio_never_worse;
          Alcotest.test_case "witness golden" `Quick test_witness_golden;
        ] );
      ( "interface",
        [
          Alcotest.test_case "choice parsing" `Quick test_choice_parsing;
          Alcotest.test_case "codes registered" `Quick test_codes_registered;
        ] );
    ]
