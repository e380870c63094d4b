(* The repository benchmark: a single-process, closed-loop driver with one
   client that calls the library's public entry points (Minic.Compile,
   Wcet_core.Analyzer, Pred32_sim.Simulator, Softarith.Ldivmod) and checks
   every output. README.md in this directory defines the workloads and
   every metric.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures with the observability layer off and prints the
   end-to-end metrics; --trace 1 measures an untraced half and a traced
   half and prints the per-layer metrics. The last line of standard output
   is one JSON object; the exit code is non-zero when any op failed. *)

module Analyzer = Wcet_core.Analyzer
module Report_cache = Wcet_core.Report_cache
module Corpus = Wcet_corpus.Corpus
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Hw_config = Pred32_hw.Hw_config
module Annot = Wcet_annot.Annot
module Ldivmod = Softarith.Ldivmod
module Parallel = Wcet_util.Parallel
module Pcg = Wcet_util.Pcg
module Trace = Wcet_obs.Trace
module Metrics = Wcet_obs.Metrics
module Obs = Wcet_obs.Obs
module Diag = Wcet_diag.Diag
open Perfbench

let setup_reps = 5
let sim_fuel = 2_000_000

(* ---- failures --------------------------------------------------------- *)

let failed = ref 0

let fail fmt =
  Format.kasprintf
    (fun msg ->
      incr failed;
      if !failed <= 20 then prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

let gate what = function Ok () -> () | Error msg -> fail "%s: %s" what msg

(* ---- instrumented calls into the library ------------------------------ *)

let span name f = Trace.with_span ~cat:"bench" name f

(* [counting] is on inside the timed loops: analyses run there feed
   complete_ratio, and while [tracing] also the per-layer tallies. *)
let counting = ref false
let tracing = ref false
let analyses = ref 0
let completes = ref 0
let tally : (string, float) Hashtbl.t = Hashtbl.create 16

let note k v =
  Hashtbl.replace tally k (v +. (Hashtbl.find_opt tally k |> Option.value ~default:0.))

let tallied k = Hashtbl.find_opt tally k |> Option.value ~default:0.

(* Decisions the analyzer recorded in the report: which escalations paid
   off, and which path backend won and by how much. *)
let note_report (r : Analyzer.report) =
  (match r.Analyzer.escalation with
  | None -> ()
  | Some e ->
    let useful f =
      List.exists (fun (_, g, _) -> g = f) e.Analyzer.ei_discharged_loops
      || List.exists (fun (_, g, _, _) -> g = f) e.Analyzer.ei_tightened_accesses
    in
    note "esc.funcs" (float (List.length e.Analyzer.ei_funcs));
    note "esc.useful" (float (List.length (List.filter useful e.Analyzer.ei_funcs))));
  let runs = r.Analyzer.backend_runs in
  List.iter
    (fun (b : Analyzer.backend_run) ->
      note ("path." ^ b.Analyzer.br_name ^ "_ms") (float b.Analyzer.br_wall_ms))
    runs;
  if List.length runs >= 2 then begin
    note "portfolio" 1.;
    match List.find_opt (fun (b : Analyzer.backend_run) -> b.Analyzer.br_winner) runs with
    | Some ({ Analyzer.br_bound = Some w; _ } as winner) ->
      if
        List.for_all
          (fun (b : Analyzer.backend_run) ->
            b == winner || match b.Analyzer.br_bound with Some x -> x > w | None -> true)
          runs
      then note ("win." ^ winner.Analyzer.br_name) 1.
    | Some _ | None -> ()
  end

let first_error_code ds =
  match List.find_opt (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) ds with
  | Some d -> d.Diag.code
  | None -> "?"

(* One analysis under the CLI defaults: Auto domain, Portfolio path
   backend, Summary engine. Whether the report cache is on is up to the
   caller. *)
let analyze ~hw ~annot program =
  match
    span "bench.analyze" (fun () ->
        Analyzer.analyze ~hw ~annot ~engine:Analyzer.Summary ~domain:Wcet_value.Analysis.Auto
          ~path_backend:Wcet_path.Path_analysis.Portfolio program)
  with
  | r ->
    if !counting then begin
      incr analyses;
      if r.Analyzer.verdict = Analyzer.Complete then incr completes;
      if !tracing then note_report r
    end;
    (Gate.Bound { complete = r.Analyzer.verdict = Analyzer.Complete; wcet = r.Analyzer.wcet },
     r.Analyzer.escalation <> None)
  | exception Analyzer.Analysis_failed ds ->
    if !counting then incr analyses;
    (Gate.Rejected (first_error_code ds), false)
  | exception e ->
    if !counting then incr analyses;
    (Gate.Crashed (Printexc.to_string e), false)

let compile ?options source = span "bench.compile" (fun () -> Compile.compile ?options source)

(* Compile then analyze; a compile error is a crash of the op. *)
let compile_and_analyze ?options ~hw ~annot source =
  match compile ?options source with
  | program -> analyze ~hw ~annot:(annot program) program
  | exception e -> (Gate.Crashed (Printexc.to_string e), false)

(* Simulator time and retired instructions of the current set-up. *)
let sim_s = ref 0.
let sim_steps = ref 0

let simulate hw program pokes =
  let t0 = Measure.now () in
  let outcome =
    span "bench.simulate" (fun () ->
        let sim = Sim.create hw program in
        List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
        Sim.run ~fuel:sim_fuel sim)
  in
  sim_s := !sim_s +. (Measure.now () -. t0);
  match outcome with
  | Sim.Halted { cycles; steps; _ } ->
    sim_steps := !sim_steps + steps;
    Some cycles
  | Sim.Faulted _ | Sim.Out_of_fuel _ -> None

(* ---- the closed loop -------------------------------------------------- *)

(* [time f] runs one op and records its latency; [pause f] runs
   housekeeping between ops with the loop's clock stopped. *)
type timer = { time : 'a. (unit -> 'a) -> 'a * float; pause : (unit -> unit) -> unit }

type loop = {
  lat_ms : float array;
  elapsed : float;
  gc : Measure.gc;
  windows : float array;  (** ops per second of each window of about [window_s] *)
}

let window_s = 1.0

let untimed = { time = (fun f -> (f (), 0.)); pause = (fun f -> f ()) }

(* One client, next op only after the previous one returns. [chunk] runs a
   whole unit of work (a corpus pass, an edit session, one histogram call)
   and times each op through the timer; the clock is read between chunks
   only, so every chunk is whole. [after_op] runs after each op, outside
   its latency. *)
let closed_loop ~seconds ~after_op chunk =
  let lat = ref [] and n_ops = ref 0 and paused = ref 0. in
  let clock () = Measure.now () -. !paused in
  let timer =
    {
      time =
        (fun f ->
          let t0 = Measure.now () in
          let r = f () in
          let ms = (Measure.now () -. t0) *. 1000. in
          lat := ms :: !lat;
          incr n_ops;
          after_op ();
          (r, ms));
      pause =
        (fun f ->
          let t0 = Measure.now () in
          f ();
          paused := !paused +. (Measure.now () -. t0));
    }
  in
  counting := true;
  let g0 = Measure.gc () in
  let t0 = clock () in
  let k = ref 0 in
  let windows = ref [] in
  let w_start = ref t0 and w_ops = ref 0 in
  while clock () -. t0 < seconds do
    chunk timer !k;
    incr k;
    let t = clock () in
    if t -. !w_start >= window_s then begin
      windows := (float (!n_ops - !w_ops) /. (t -. !w_start)) :: !windows;
      w_start := t;
      w_ops := !n_ops
    end
  done;
  let elapsed = clock () -. t0 in
  if !windows = [] then windows := [ float !n_ops /. elapsed ];
  let gc = Measure.diff (Measure.gc ()) g0 in
  counting := false;
  { lat_ms = Array.of_list (List.rev !lat); elapsed; gc; windows = Array.of_list !windows }

(* ---- workloads -------------------------------------------------------- *)

type workload = {
  setup : int -> unit;  (** one set-up, by repetition index *)
  chunk : timer -> int -> unit;
  finish : unit -> unit;  (** checks that need the whole loop's outputs *)
  bound_ratio : unit -> float;  (** bound_over_observed_geomean *)
  complete_ratio : unit -> float;
  speedup : unit -> float;  (** ldivmod.speedup_vs_1_domain; 0 where no histogram runs *)
  report : loop -> unit;  (** extra lines printed before the result *)
}

let ratio a b = if b = 0. then 0. else a /. b

let default_complete_ratio () = ratio (float !completes) (float !analyses)

(* corpus_auto: every corpus entry x {conforming, violating}, with its
   assisted annotations and hardware profile, exactly the set [check]
   runs; the report cache stays disabled (the library default). *)

type scen = {
  name : string;
  sc : Corpus.scenario;
  mutable expected : Gate.outcome option;
  mutable sim_max : int option option;
  mutable escalating : bool;
  mutable lat : float list;
}

let corpus_auto ~seed =
  let scens =
    Array.of_list
      (List.concat_map
         (fun (e : Corpus.entry) ->
           List.map
             (fun (variant, sc) ->
               { name = e.Corpus.id ^ "/" ^ variant; sc; expected = None; sim_max = None;
                 escalating = false; lat = [] })
             [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
         Corpus.all)
  in
  let op s =
    compile_and_analyze ~options:s.sc.Corpus.options ~hw:s.sc.Corpus.hw
      ~annot:s.sc.Corpus.annotations s.sc.Corpus.source
  in
  let check s o =
    match s.expected with
    | None -> gate s.name (Error "no first outcome")
    | Some expected ->
      gate s.name (Gate.corpus ~expected ~sim_max:(Option.join s.sim_max) o)
  in
  let setup _ =
    Array.iter
      (fun s ->
        match compile ~options:s.sc.Corpus.options s.sc.Corpus.source with
        | exception e -> fail "%s: compile: %s" s.name (Printexc.to_string e)
        | program ->
          let inputs = match s.sc.Corpus.inputs with [] -> [ [] ] | i -> i in
          let worst =
            List.fold_left
              (fun acc pokes ->
                match (acc, simulate s.sc.Corpus.hw program pokes) with
                | Some a, Some c -> Some (max a c)
                | None, c | c, None -> c)
              None inputs
          in
          (match s.sim_max with
          | Some w when w <> worst -> fail "%s: simulator reference changed between set-ups" s.name
          | _ -> ());
          s.sim_max <- Some worst)
      scens;
    (* Warm-up pass; the first one fixes each scenario's expected outcome. *)
    Array.iter
      (fun s ->
        let o, esc = op s in
        if s.expected = None then begin
          s.expected <- Some o;
          s.escalating <- esc
        end;
        check s o)
      scens
  in
  let chunk timer k =
    let rng = Pcg.create ~seq:(Int64.of_int k) ~seed:(Int64.of_int seed) () in
    let order = Array.init (Array.length scens) Fun.id in
    for i = Array.length order - 1 downto 1 do
      let j = Pcg.next_int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter
      (fun i ->
        let s = scens.(i) in
        let (o, _), ms = timer.time (fun () -> op s) in
        s.lat <- ms :: s.lat;
        check s o)
      order
  in
  let bound_ratio () =
    Stats.geomean
      (Array.to_list scens
      |> List.filter_map (fun s ->
             match (s.expected, Option.join s.sim_max) with
             | Some (Gate.Bound { complete = true; wcet }), Some m when m > 0 ->
               Some (float wcet /. float m)
             | _ -> None))
  in
  let report _ =
    let group esc =
      List.filter (fun s -> s.escalating = esc) (Array.to_list scens)
      |> List.map (fun s -> Stats.median (Array.of_list s.lat))
    in
    Array.iter
      (fun s ->
        Printf.printf "row corpus_auto %s %s median_ms=%.4f n=%d\n" s.name
          (if s.escalating then "escalating" else "flat")
          (Stats.median (Array.of_list s.lat))
          (List.length s.lat))
      scens;
    List.iter
      (fun esc ->
        let g = group esc in
        Printf.printf "group corpus_auto %s scenarios=%d geomean_median_ms=%.4f\n"
          (if esc then "escalating" else "flat")
          (List.length g) (Stats.geomean g))
      [ true; false ]
  in
  {
    setup;
    chunk;
    finish = ignore;
    bound_ratio;
    complete_ratio = default_complete_ratio;
    speedup = (fun () -> 0.);
    report;
  }

(* incremental_edit: edit/re-analyze sessions over seed-generated programs,
   each session in a fresh report store under the working directory. A
   session's store is deleted as soon as it ends, with the loop's clock
   stopped: the edit loop being measured never deletes, and a store that
   lived on would leave the kernel writing it back to disk during later
   ops. *)

let ops_per_session = 20

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let tmp_root = Filename.concat "_perfbench_tmp" (string_of_int (Unix.getpid ()))

let incremental_edit ~seed =
  (* Every version analyzed in a session, with its first outcome. *)
  let versions : (string, Gate.outcome) Hashtbl.t = Hashtbl.create 1024 in
  let sessions = ref 0 in
  let ratios = ref [] in
  let hw = Hw_config.default in
  let annot _ = Annot.empty in
  let session timer k =
    let rng = Pcg.create ~seq:(Int64.of_int k) ~seed:(Int64.of_int seed) () in
    let shape = Editgen.shape rng in
    incr sessions;
    let dir = Filename.concat tmp_root (Printf.sprintf "session-%d" !sessions) in
    if not (Report_cache.set_dir dir) then fail "session %d: cannot open the store %s" k dir;
    let seen = ref [] in
    let current = ref (Editgen.initial rng shape) in
    for i = 0 to ops_per_session - 1 do
      let others = List.filter (fun (v, _) -> v <> !current) !seen in
      let v =
        if i = 0 then !current
        else if others <> [] && Pcg.next_int rng 4 = 0 then
          fst (List.nth others (Pcg.next_int rng (List.length others)))
        else Editgen.edit rng shape !current
      in
      let src = Editgen.source shape v in
      let (o, _), _ = timer.time (fun () -> compile_and_analyze ~hw ~annot src) in
      (match List.find_opt (fun (_, (s, _)) -> s = src) !seen with
      | Some (_, (_, first)) -> gate (Printf.sprintf "session %d revisit" k) (Gate.revisit ~first o)
      | None ->
        seen := (v, (src, o)) :: !seen;
        match Hashtbl.find_opt versions src with
        | Some first -> gate (Printf.sprintf "session %d" k) (Gate.revisit ~first o)
        | None -> Hashtbl.add versions src o);
      current := v
    done;
    Report_cache.disable ();
    timer.pause (fun () -> rm_rf dir)
  in
  let setup rep =
    let rng = Pcg.create ~seq:0L ~seed:(Int64.of_int seed) () in
    let shape = Editgen.shape rng in
    (match compile (Editgen.source shape (Editgen.initial rng shape)) with
    | program -> ignore (simulate hw program [])
    | exception e -> fail "generated program: compile: %s" (Printexc.to_string e));
    session untimed (-1 - rep)
  in
  (* After the loop: each version's bound against a cold cache-off
     re-analysis and against its simulated cycles. The re-analyses fan out
     over the pool (nested pool calls inside them run serially). *)
  let finish () =
    Report_cache.disable ();
    let checked =
      Hashtbl.fold (fun src o acc -> (src, o) :: acc) versions []
      |> List.sort compare
      |> Parallel.map_list (fun (src, o) ->
             match compile src with
             | exception e -> (o, Gate.Crashed (Printexc.to_string e), None)
             | program -> (o, fst (analyze ~hw ~annot:Annot.empty program), simulate hw program []))
    in
    List.iter
      (fun (o, cold, cycles) ->
        match cycles with
        | None -> fail "version: no halting simulation (%a)" Gate.pp_outcome cold
        | Some cycles -> (
          gate "version" (Gate.version ~cold ~sim_cycles:cycles o);
          match o with
          | Gate.Bound { complete = true; wcet } when cycles > 0 ->
            ratios := (float wcet /. float cycles) :: !ratios
          | _ -> ()))
      checked
  in
  let report _ =
    Printf.printf "info incremental_edit sessions=%d ops_per_session=%d versions=%d\n" !sessions
      ops_per_session (Hashtbl.length versions)
  in
  {
    setup;
    chunk = session;
    finish;
    bound_ratio = (fun () -> Stats.geomean !ratios);
    complete_ratio = default_complete_ratio;
    speedup = (fun () -> 0.);
    report;
  }

(* table1_histogram: the paper's Table 1 at the pool's domain count. *)

let histogram_samples = 400_000

let table1_histogram ~seed =
  let seed = Int64.of_int seed in
  let reference = ref None in
  let calls = ref 0 and whole = ref 0 in
  let histogram ?domains () =
    span "bench.histogram" (fun () -> Ldivmod.histogram ?domains ~samples:histogram_samples ~seed ())
  in
  let check h =
    if !counting then begin
      incr calls;
      if List.fold_left (fun n (_, c) -> n + c) 0 (fst h) = histogram_samples then incr whole
    end;
    match !reference with
    | None -> gate "histogram" (Error "no reference")
    | Some reference -> gate "histogram" (Gate.histogram ~reference h)
  in
  let setup _ =
    let r = histogram ~domains:1 () in
    if !reference = None then reference := Some r;
    check r;
    check (histogram ())
  in
  let chunk timer _ =
    let h, _ = timer.time (fun () -> histogram ()) in
    check h
  in
  (* Alternating 1-domain and pool calls on a warm heap: the set-up's
     reference call runs on a cold one and would overstate the speed-up. *)
  let speedup () =
    let timed domains =
      let t0 = Measure.now () in
      check (histogram ~domains ());
      Measure.now () -. t0
    in
    let pairs = Array.init 7 (fun _ -> (timed 1, timed (Parallel.default_domains ()))) in
    Stats.median (Array.map fst pairs) /. Stats.median (Array.map snd pairs)
  in
  let report l =
    Printf.printf "info table1_histogram samples_per_op=%d samples_per_s=%.1f\n"
      histogram_samples
      (float (Array.length l.lat_ms * histogram_samples) /. l.elapsed)
  in
  {
    setup;
    chunk;
    finish = ignore;
    (* No analysis runs here: both precision figures take the neutral 1
       (a histogram is complete when its counts cover every sample). *)
    bound_ratio = (fun () -> 1.);
    complete_ratio = (fun () -> ratio (float !whole) (float !calls));
    speedup;
    report;
  }

(* ---- metrics ---------------------------------------------------------- *)

(* The spans the analyzer emits under "analyze", which between them cover
   its wall time. *)
let analyze_layers =
  [ "analyze"; "decode"; "value"; "octagon"; "cache"; "persistence"; "pipeline"; "path"; "scc" ]

let counter name =
  match Metrics.find name with
  | Some (Metrics.Counter_value v) -> float v
  | Some _ | None -> 0.

(* The median over the loop's windows of about [window_s]: a burst of
   outside load then moves one window, not the figure. *)
let ops_per_s l = Stats.median l.windows

(* Median over a few calls of a pool fan-out with an empty body. *)
let spawn_join_us () =
  let d = Parallel.default_domains () in
  Array.init 101 (fun _ ->
      let t0 = Measure.now () in
      ignore (Parallel.map ~domains:d d ignore);
      (Measure.now () -. t0) *. 1e6)
  |> Stats.median

(* The gated end-to-end metrics, from a loop run with Wcet_obs off. Wall
   time per op and memory are printed beside them (see [print_timing])
   but not gated: on small shared hosts they move with the host's load
   by more than any bound that could still catch a regression. *)
let end_to_end w ~setup_s l =
  [
    ("setup_s", "s", Stats.median setup_s);
    ("alloc_mwords_per_op", "Mword", l.gc.Measure.words /. float (Array.length l.lat_ms) /. 1e6);
    ("complete_ratio", "ratio", w.complete_ratio ());
    ("bound_over_observed_geomean", "ratio", w.bound_ratio ());
  ]

let print_timing ~workload ~seed l =
  let p99 = Stats.percentile l.lat_ms 0.99 in
  let ops = Array.length l.lat_ms in
  Printf.printf
    "info %s seed=%d domains=%d ops=%d elapsed_s=%.3f ops_per_s=%.4f op_ms_p50=%.4f \
     op_ms_p99=%.4f samples_beyond_p99=%d peak_rss_mb=%.3f failed_ratio=%g\n"
    workload seed (Parallel.default_domains ()) ops l.elapsed (ops_per_s l) (Stats.median l.lat_ms)
    p99 (Stats.count_above l.lat_ms p99) (Measure.peak_rss_mb ())
    (ratio (float !failed) (float ops))

(* The per-layer metrics: [plain] ran untraced, [traced] with Wcet_obs on;
   [spans] holds the traced loop's spans and the metrics registry its
   counters. *)
let per_layer w ~sim ~plain ~traced spans =
  let n = float (Array.length traced.lat_ms) in
  let per_op v = v /. n in
  let self name = per_op (Spans.self_ms spans name) in
  let c = counter in
  let solved = c "summary_computes{analysis=value}" +. c "summary_computes{analysis=cache}" in
  let reused = c "summary_hits{analysis=value}" +. c "summary_hits{analysis=cache}" in
  let store = Report_cache.session_stats () in
  let hit_ratio h m = ratio (float h) (float (h + m)) in
  let sim_ms = Stats.median (Array.of_list (List.map (fun (s, _) -> s *. 1000.) sim)) in
  let sim_minstr =
    Stats.median
      (Array.of_list (List.map (fun (s, st) -> if s > 0. then float st /. s /. 1e6 else 0.) sim))
  in
  let pops = float (Array.length plain.lat_ms) in
  [
    ("ops_per_s", "1/s", ops_per_s plain);
    ("op_ms_p50", "ms", Stats.median plain.lat_ms);
    ("op_ms_p95", "ms", Stats.percentile plain.lat_ms 0.95);
    ("peak_rss_mb", "MB", Measure.peak_rss_mb ());
    ("minic.compile_ms", "ms", self "bench.compile");
    ("cfg.decode_ms", "ms", self "decode");
    ("value.interval_ms", "ms", self "value");
    ("value.transfers", "count", per_op (c "fixpoint_transfers{analysis=value}"));
    ("value.widenings", "count", per_op (c "fixpoint_widenings{analysis=value}"));
    ("octagon.ms", "ms", self "octagon");
    ("octagon.transfers", "count", per_op (c "fixpoint_transfers{analysis=octagon}"));
    ("octagon.escalated_functions", "count", per_op (c "value_escalated_functions"));
    ("octagon.useful_ratio", "ratio", ratio (tallied "esc.useful") (tallied "esc.funcs"));
    ("cache.ms", "ms", self "cache");
    ("cache.persistence_ms", "ms", self "persistence");
    ("cache.transfers", "count", per_op (c "fixpoint_transfers{analysis=cache}"));
    ( "cache.not_classified",
      "count",
      per_op
        (c "cache_fetch_class{class=not_classified}" +. c "cache_data_class{class=not_classified}")
    );
    ("pipeline.ms", "ms", self "pipeline");
    ("path.ms", "ms", self "path");
    ("path.simplex_pivots", "count", per_op (c "simplex_pivots"));
    ("path.ipet_ms", "ms", per_op (tallied "path.ipet_ms"));
    ("path.csolve_ms", "ms", per_op (tallied "path.csolve_ms"));
    ("path.mc_ms", "ms", per_op (tallied "path.mc_ms"));
    ("path.strict_win_share.ipet", "ratio", ratio (tallied "win.ipet") (tallied "portfolio"));
    ("path.strict_win_share.csolve", "ratio", ratio (tallied "win.csolve") (tallied "portfolio"));
    ("path.strict_win_share.mc", "ratio", ratio (tallied "win.mc") (tallied "portfolio"));
    ("summary.components_solved", "count", per_op solved);
    ("summary.components_reused", "count", per_op reused);
    ("summary.reuse_ratio", "ratio", ratio reused (solved +. reused));
    ("analyze.ms", "ms", per_op (Spans.total_ms spans "analyze"));
    ("analyze.self_ms", "ms", self "analyze");
    ( "store.program_hit_ratio",
      "ratio",
      hit_ratio store.Report_cache.program_hits store.Report_cache.program_misses );
    ( "store.function_hit_ratio",
      "ratio",
      hit_ratio store.Report_cache.function_hits store.Report_cache.function_misses );
    ("store.kb_written_per_op", "KiB", per_op (c "cache_store_bytes_written" /. 1024.));
    ("store.kb_read_per_op", "KiB", per_op (c "cache_store_bytes_read" /. 1024.));
    ("parallel.spawn_join_us", "us", spawn_join_us ());
    ("ldivmod.speedup_vs_1_domain", "ratio", w.speedup ());
    ("sim.ms", "ms", sim_ms);
    ("sim.minstr_per_s", "Minstr/s", sim_minstr);
    ("gc.minor_collections_per_op", "count", plain.gc.Measure.minor_collections /. pops);
    ("gc.major_collections_per_op", "count", plain.gc.Measure.major_collections /. pops);
    ("gc.promoted_words_per_op", "word", plain.gc.Measure.promoted_words /. pops);
    ("trace.overhead_ops_per_s", "1/s", ops_per_s plain -. ops_per_s traced);
  ]

let print_result metrics ~attempted =
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) attempted !failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload corpus_auto|incremental_edit|table1_histogram --seed N \
               --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let make =
    match !workload with
    | "corpus_auto" -> corpus_auto
    | "incremental_edit" -> incremental_edit
    | "table1_histogram" -> table1_histogram
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  at_exit (fun () ->
      rm_rf tmp_root;
      try Sys.rmdir (Filename.dirname tmp_root) with Sys_error _ -> ());
  let w = make ~seed:!seed in
  let sim = ref [] in
  let setup_s =
    Array.init setup_reps (fun rep ->
        sim_s := 0.;
        sim_steps := 0;
        let t0 = Measure.now () in
        w.setup rep;
        let dt = Measure.now () -. t0 in
        sim := (!sim_s, !sim_steps) :: !sim;
        dt)
  in
  let seconds = float !seconds in
  let metrics, attempted =
    if !trace = 0 then begin
      let l = closed_loop ~seconds ~after_op:ignore w.chunk in
      w.finish ();
      print_timing ~workload:!workload ~seed:!seed l;
      w.report l;
      (end_to_end w ~setup_s l, Array.length l.lat_ms)
    end
    else begin
      let half = Float.max 0.5 (seconds /. 2.) in
      let plain = closed_loop ~seconds:half ~after_op:ignore w.chunk in
      let spans = Spans.create () in
      let after_op () =
        if Trace.dropped () > 0 then fail "trace buffer dropped %d spans" (Trace.dropped ());
        Spans.add spans (Trace.events ());
        Trace.reset ()
      in
      Hashtbl.reset tally;
      Report_cache.reset_session ();
      Obs.enable ();
      Metrics.reset ();
      Trace.reset ();
      tracing := true;
      let traced = closed_loop ~seconds:half ~after_op w.chunk in
      tracing := false;
      Obs.disable ();
      let analyze_ms = Spans.total_ms spans "analyze" in
      let layer_sum = List.fold_left (fun acc s -> acc +. Spans.self_ms spans s) 0. analyze_layers in
      if Float.abs (layer_sum -. analyze_ms) > 1e-3 *. Float.max 1. analyze_ms then
        fail "layer self times sum to %.3f ms but the analyze spans to %.3f ms" layer_sum
          analyze_ms;
      let metrics = per_layer w ~sim:!sim ~plain ~traced spans in
      w.finish ();
      Printf.printf "info %s seed=%d domains=%d untraced_ops=%d traced_ops=%d spans=%s\n"
        !workload !seed (Parallel.default_domains ()) (Array.length plain.lat_ms)
        (Array.length traced.lat_ms)
        (String.concat "," (Spans.names spans));
      w.report traced;
      (metrics, Array.length plain.lat_ms + Array.length traced.lat_ms)
    end
  in
  print_result metrics ~attempted;
  if !failed > 0 then exit 1
