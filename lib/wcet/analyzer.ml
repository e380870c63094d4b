module Program = Pred32_asm.Program
module Hw_config = Pred32_hw.Hw_config
module Memory_map = Pred32_memory.Memory_map
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops
module Resolver = Wcet_cfg.Resolver
module Aval = Wcet_value.Aval
module Analysis = Wcet_value.Analysis
module Loop_bounds = Wcet_value.Loop_bounds
module Resolve_iter = Wcet_value.Resolve_iter
module Cache_analysis = Wcet_cache.Cache_analysis
module Block_timing = Wcet_pipeline.Block_timing
module Ipet = Wcet_ipet.Ipet
module Path_analysis = Wcet_path.Path_analysis
module Portfolio = Wcet_path.Portfolio
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace

let m_runs_complete =
  Metrics.counter ~labels:[ ("verdict", "complete") ] ~name:"analyzer_runs"
    ~help:"Analyses finishing with a complete (unconditional) bound" ()

let m_runs_partial =
  Metrics.counter ~labels:[ ("verdict", "partial") ] ~name:"analyzer_runs"
    ~help:"Analyses finishing with a partial (hole-conditional) bound" ()

let m_failures =
  Metrics.counter ~name:"analyzer_failures" ~help:"Analyses aborted by a fatal diagnostic" ()

let m_scc_count =
  Metrics.gauge ~name:"scc_count"
    ~help:"Strongly connected components of the analyzed program's call graph" ()

(* Which fixpoint engine drives the value and cache analyses. [Summary] is
   the default: a bottom-up component-scheduled solve over the call-graph
   condensation with persistent per-function summaries (O(changed)
   re-analysis). [Whole_program] is the classic single-worklist solve, and
   the oracle a checked run compares every summary run against (E0204). *)
type engine = Summary | Whole_program

let engine_name = function Summary -> "summary" | Whole_program -> "whole-program"

exception Analysis_failed of Diag.t list

let () =
  Printexc.register_printer (function
    | Analysis_failed ds ->
      Some (Format.asprintf "Analysis_failed:@,%a" Diag.pp_list ds)
    | _ -> None)

type phase = Decode | Loop_value | Octagon | Cache | Persistence | Pipeline | Path

let phase_name = function
  | Decode -> "decoding / CFG reconstruction"
  | Loop_value -> "loop & value analysis"
  | Octagon -> "octagon escalation"
  | Cache -> "cache analysis"
  | Persistence -> "cache persistence analysis"
  | Pipeline -> "pipeline analysis"
  | Path -> "path analysis"

type confidence = Complete | Partial

type hole =
  | Hole_call of { site : int; func : string }
  | Hole_jump of { site : int; func : string }
  | Hole_loop of { header : int; func : string; reason : string }
  | Hole_irreducible of { blocks : int list; func : string }

(* What an octagon escalation changed, kept in the report so the auditor
   can mark the interval-pass findings the relational pass resolved
   ([discharged-by: octagon]) and the observability layer can attribute the
   precision gain. *)
type esc_info = {
  ei_domain : string;  (* requested domain: "octagon" or "auto" *)
  ei_funcs : string list;  (* functions that triggered the escalation *)
  ei_transfers : int;  (* product-domain transfer count *)
  ei_slots : int list;  (* tracked stack/global word addresses *)
  ei_discharged_loops : (int * string * string) list;
      (* (header addr, func, interval cause) of loops the interval pass
         left unbounded and the relational pass bounded *)
  ei_tightened_accesses : (int * string * Aval.t * Aval.t) list;
      (* (insn addr, func, interval addr, refined addr) of accesses whose
         address interval strictly tightened under the octagon *)
}

(* One path backend's contribution to this run, kept in the report for
   explain, the daemon and the E5 bench table. *)
type backend_run = {
  br_name : string;
  br_bound : int option;  (* None = the backend failed *)
  br_error : (string * string) option;  (* (diag code, detail) *)
  br_wall_ms : int;
  br_winner : bool;  (* supplied the bound the report carries *)
}

type report = {
  program : Program.t;
  hw : Hw_config.t;
  graph : Supergraph.t;
  loops : Loops.info;
  value : Analysis.result;
  escalation : esc_info option;
  derived_bounds : Loop_bounds.t;
  effective_bounds : (int * int) list;
  unbounded_loops : (int * string) list;
  cache : Cache_analysis.result;
  timing : Block_timing.t;
  solution : Ipet.solution;
  path_backend : string;  (* requested backend configuration *)
  backend_runs : backend_run list;
  wcet : int;
  bcet : int;
  verdict : confidence;
  holes : hole list;
  diagnostics : Diag.t list;
  phase_seconds : (phase * float) list;
}

let span_name = function
  | Decode -> "decode"
  | Loop_value -> "value"
  | Octagon -> "octagon"
  | Cache -> "cache"
  | Persistence -> "persistence"
  | Pipeline -> "pipeline"
  | Path -> "path"

(* What the phase functions of one analysis share: the diagnostics, the
   timed phases and the holes collected so far, and the run's inputs. *)
type ctx = {
  c : Diag.collector;
  hw : Hw_config.t;
  annot : Annot.t;
  cancel : (unit -> bool) option;
  mutable phases : (phase * float) list;  (* most recent first *)
  mutable holes : hole list;  (* most recent first *)
}

let timed ctx phase f =
  Trace.with_span ~cat:"analyzer" (span_name phase) (fun () ->
      let t0 = Wcet_util.Mono_clock.now () in
      let result = f () in
      let dt = Wcet_util.Mono_clock.now () -. t0 in
      ctx.phases <- (phase, dt) :: ctx.phases;
      result)

(* The token reaches the value/cache fixpoints (polled per transfer); the
   remaining phases poll it at their boundary so a deadline that expires
   between fixpoints still cancels before the next phase starts. *)
let check_cancel ctx =
  match ctx.cancel with
  | Some c when c () -> raise Wcet_util.Fixpoint.Cancelled
  | Some _ | None -> ()

(* A fatal problem: record the diagnostic and abort with everything
   collected so far. *)
let fatal c phase ~code ?loc ?hint fmt =
  Format.kasprintf
    (fun message ->
      Metrics.incr m_failures 1;
      Diag.add c (Diag.make ?hint ?loc Diag.Error phase ~code message);
      raise (Analysis_failed (Diag.items c)))
    fmt

let warn c phase ~code ?loc ?hint fmt =
  Format.kasprintf
    (fun message -> Diag.add c (Diag.make ?hint ?loc Diag.Warning phase ~code message))
    fmt

(* Translate the annotation set into a resolver. Unknown function names are
   degraded to warnings: the offending target is dropped (the call site then
   either resolves from the remaining names or becomes an analysis hole). *)
let resolver_of_annot c program (annot : Annot.t) =
  let call_targets =
    List.filter_map
      (fun (site, names) ->
        let addrs =
          List.filter_map
            (fun name ->
              match Program.find_function program name with
              | Some f -> Some f.Program.entry
              | None ->
                warn c Diag.Annot ~code:"W0401" ~loc:(Diag.at_addr site)
                  "calltargets annotation names unknown function %s (ignored)" name;
                None)
            names
        in
        if addrs = [] then None else Some (site, addrs))
      annot.Annot.call_targets
  in
  let jump_targets =
    if annot.Annot.setjmp_auto then begin
      let continuations = Resolver.scan_setjmp_continuations program in
      (* every indirect jump site may target any setjmp continuation *)
      Some continuations
    end
    else None
  in
  let base = Resolver.auto program in
  let base =
    Resolver.with_overrides ~call_targets ~recursion_depths:annot.Annot.recursion_depths base
  in
  match jump_targets with
  | None -> base
  | Some continuations ->
    {
      base with
      Resolver.jump_targets =
        (fun ~site ~block ->
          match base.Resolver.jump_targets ~site ~block with
          | Some t -> Some t
          | None -> if continuations = [] then None else Some continuations);
    }

let assumes_of_annot c program (annot : Annot.t) =
  let user =
    List.filter_map
      (fun (sym, lo, hi) ->
        match Program.symbol_opt program sym with
        | Some addr -> Some (addr, Aval.interval lo hi)
        | None ->
          warn c Diag.Annot ~code:"W0402" "assume annotation names unknown symbol %s (ignored)"
            sym;
          None)
      annot.Annot.assumes
  in
  (* Compiler-runtime invariant: the heap bump pointer starts at its linked
     initial value. It is internal to the generated code - unlike user
     globals, no test harness pokes it - so treating the initializer as
     known is sound and keeps early heap blocks at known addresses. *)
  let runtime =
    match Program.symbol_opt program "__heap_ptr" with
    | Some addr ->
      [ (addr, Aval.const (Pred32_memory.Image.read_word program.Program.image addr)) ]
    | None -> []
  in
  runtime @ user

let region_hints_of_annot c program (annot : Annot.t) func =
  match List.assoc_opt func annot.Annot.memory_regions with
  | None -> None
  | Some names -> (
    match
      List.filter_map
        (fun name ->
          match Memory_map.find_by_name program.Program.map name with
          | Some r -> Some r
          | None ->
            warn c Diag.Annot ~code:"W0403" ~loc:(Diag.in_func func)
              "memory annotation names unknown region %s (ignored)" name;
            None)
        names
    with
    | [] -> None
    | rs -> Some rs)

(* Region hints resolved once per function of the graph, up front:
   resolving lazily in the cache transfer would emit one W0403 per node
   instead of one per function. *)
let region_hint_table c program annot (graph : Supergraph.t) =
  let tbl : (string, Pred32_memory.Region.t list option) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (n : Supergraph.node) ->
      let f = n.Supergraph.func in
      if not (Hashtbl.mem tbl f) then
        Hashtbl.add tbl f (region_hints_of_annot c program annot f))
    graph.Supergraph.nodes;
  fun f -> Option.join (Hashtbl.find_opt tbl f)

(* Nodes matching a place: block entries at an address, or entry blocks of a
   function (any context). *)
let nodes_of_place c (graph : Supergraph.t) program place =
  match place with
  | Annot.At_addr addr ->
    Array.to_list graph.Supergraph.nodes
    |> List.filter_map (fun (n : Supergraph.node) ->
           if n.Supergraph.block.Func_cfg.entry = addr then Some n.Supergraph.id else None)
  | Annot.In_function name -> (
    match Program.find_function program name with
    | None ->
      warn c Diag.Annot ~code:"W0401" "flow-fact annotation names unknown function %s (ignored)"
        name;
      []
    | Some f ->
      Array.to_list graph.Supergraph.nodes
      |> List.filter_map (fun (n : Supergraph.node) ->
             if n.Supergraph.block.Func_cfg.entry = f.Program.entry then Some n.Supergraph.id
             else None))

let loop_matches_place (graph : Supergraph.t) program (loops : Loops.info) li place =
  let header = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
  match place with
  | Annot.At_addr addr -> header.Supergraph.block.Func_cfg.entry = addr
  | Annot.In_function name ->
    ignore program;
    header.Supergraph.func = name

let facts_of_annot c graph program (annot : Annot.t) =
  List.filter_map
    (fun fact ->
      match fact with
      | Annot.Max_count (place, bound) -> (
        match nodes_of_place c graph program place with
        | [] -> None
        | nodes ->
          Some
            {
              Ipet.fact_coeffs = List.map (fun n -> (n, 1)) nodes;
              fact_bound = bound;
              fact_label =
                (match place with
                | Annot.At_addr a -> Printf.sprintf "maxcount at 0x%x" a
                | Annot.In_function f -> Printf.sprintf "maxcount %s" f);
            })
      | Annot.Exclusive places -> (
        match
          List.concat_map
            (fun p -> List.map (fun n -> (n, 1)) (nodes_of_place c graph program p))
            places
        with
        | [] -> None
        | coeffs -> Some { Ipet.fact_coeffs = coeffs; fact_bound = 1; fact_label = "exclusive paths" }))
    annot.Annot.flow_facts

(* Best-case bound: the shortest feasible walk from entry to a halting
   node, weighted by the optimistic per-block times. Weights are positive,
   so Dijkstra's shortest walk is a sound lower bound even through cycles
   (taking a cycle never shortens a walk). *)
let best_case_bound (value : Analysis.result) (timing : Block_timing.t) =
  let graph = value.Analysis.graph in
  let n = Array.length graph.Supergraph.nodes in
  let dist = Array.make n max_int in
  let visited = Array.make n false in
  let entry = graph.Supergraph.entry in
  dist.(entry) <- timing.Block_timing.bcet.(entry);
  let rec loop () =
    (* linear-scan Dijkstra: graphs are small *)
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not visited.(v)) && dist.(v) < max_int && (!u < 0 || dist.(v) < dist.(!u)) then
        u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      visited.(u) <- true;
      List.iter
        (fun (_, v) ->
          let w = dist.(u) + timing.Block_timing.bcet.(v) in
          if w < dist.(v) then dist.(v) <- w)
        (Analysis.feasible_successors value u);
      loop ()
    end
  in
  loop ();
  let best = ref max_int in
  for v = 0 to n - 1 do
    if dist.(v) < !best && Analysis.feasible_successors value v = [] then best := dist.(v)
  done;
  if !best = max_int then 0 else !best

let build_error_code msg =
  let contains affix =
    let al = String.length affix and ml = String.length msg in
    let rec go i = i + al <= ml && (String.sub msg i al = affix || go (i + 1)) in
    go 0
  in
  if contains "recursi" then
    ("E0202", Some "recursion <function> depth <n>")
  else ("E0201", None)

(* Pre-validate loop-bound annotation places so a bogus function name in a
   loop annotation surfaces as a diagnostic instead of silently never
   matching. *)
let validate_loop_places c program (annot : Annot.t) =
  List.iter
    (fun (place, _) ->
      match place with
      | Annot.In_function name ->
        if Program.find_function program name = None then
          warn c Diag.Annot ~code:"W0401"
            "loop-bound annotation names unknown function %s (ignored)" name
      | Annot.At_addr _ -> ())
    annot.Annot.loop_bounds


(* ---- Figure 1, one function per phase --------------------------------- *)

(* Decoding / CFG reconstruction: the supergraph with iterative
   indirect-call resolution, one hole per remaining unresolved site, and
   the loop nest. *)
let decode ctx program =
  let c = ctx.c in
  let resolver = resolver_of_annot c program ctx.annot in
  let assumes = assumes_of_annot c program ctx.annot in
  validate_loop_places c program ctx.annot;
  let graph =
    timed ctx Decode (fun () ->
        try Resolve_iter.build_graceful ~resolver ~assumes program
        with Supergraph.Build_error msg ->
          let code, hint = build_error_code msg in
          fatal c Diag.Decode ~code ?hint "%s: %s" (phase_name Decode) msg)
  in
  let seen_sites = Hashtbl.create 4 in
  List.iter
    (fun (nid, site) ->
      if not (Hashtbl.mem seen_sites site) then begin
        Hashtbl.add seen_sites site ();
        let func = graph.Supergraph.nodes.(nid).Supergraph.func in
        ctx.holes <- Hole_call { site; func } :: ctx.holes;
        warn c Diag.Decode ~code:"W0301"
          ~loc:(Diag.at_addr ~func site)
          ~hint:(Printf.sprintf "calltargets at 0x%x = <function>, <function>" site)
          "indirect call cannot be resolved; the callee is excluded from the bound"
      end)
    graph.Supergraph.unresolved_calls;
  List.iter
    (fun site ->
      let func =
        match Program.function_at program site with
        | Some f -> f.Program.name
        | None -> "?"
      in
      ctx.holes <- Hole_jump { site; func } :: ctx.holes;
      warn c Diag.Decode ~code:"W0304"
        ~loc:(Diag.at_addr ~func site)
        ~hint:"setjmp auto   # if the jump implements longjmp"
        "indirect jump cannot be resolved; execution beyond it is excluded from the bound")
    graph.Supergraph.unresolved_jumps;
  let loops = Loops.analyze graph in
  if Wcet_obs.Obs.on () then
    Metrics.set m_scc_count
      (Wcet_cfg.Callgraph.scc_count (Wcet_cfg.Callgraph.of_supergraph graph));
  (assumes, graph, loops)

(* The functions [Auto] re-solves under the octagon: those whose interval
   results left imprecise data accesses or input-dependent/aliased
   loop-bound causes. *)
let funcs_to_escalate (graph : Supergraph.t) (loops : Loops.info) (value : Analysis.result)
    (bounds : Loop_bounds.t) =
  let tbl : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun nid accs ->
      if List.exists (fun (a : Analysis.access) -> Aval.singleton a.Analysis.addr = None) accs
      then Hashtbl.replace tbl graph.Supergraph.nodes.(nid).Supergraph.func ())
    value.Analysis.accesses;
  Array.iteri
    (fun li verdict ->
      match verdict with
      | Loop_bounds.Unbounded ((Loop_bounds.Input_dependent | Loop_bounds.Aliased_counter), _) ->
        let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
        Hashtbl.replace tbl hn.Supergraph.func ()
      | _ -> ())
    bounds.Loop_bounds.per_loop;
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) tbl [])

(* Fold an escalation back over the interval results: a loop the interval
   pass bounded keeps the tighter of the two bounds, one it could not bound
   is discharged by a relational bound, and every access whose address
   interval strictly tightened is recorded (the material for the auditor's
   [discharged-by: octagon] marks). *)
let merge_escalation ~domain (graph : Supergraph.t) (loops : Loops.info)
    (value : Analysis.result) (bounds : Loop_bounds.t) (esc : Analysis.escalation)
    (refined_bounds : Loop_bounds.t) =
  let discharged = ref [] in
  let per_loop =
    Array.mapi
      (fun li refined ->
        match (bounds.Loop_bounds.per_loop.(li), refined) with
        | Loop_bounds.Bounded a, Loop_bounds.Bounded b -> Loop_bounds.Bounded (min a b)
        | Loop_bounds.Unbounded (cause, _), (Loop_bounds.Bounded _ as b) ->
          let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
          discharged :=
            (hn.Supergraph.block.Func_cfg.entry, hn.Supergraph.func, Loop_bounds.cause_name cause)
            :: !discharged;
          b
        | base, _ -> base)
      refined_bounds.Loop_bounds.per_loop
  in
  let tightened = ref [] in
  Array.iteri
    (fun nid base_accs ->
      let refined_accs = esc.Analysis.esc_result.Analysis.accesses.(nid) in
      List.iter
        (fun (b : Analysis.access) ->
          match
            List.find_opt
              (fun (r : Analysis.access) -> r.Analysis.insn_index = b.Analysis.insn_index)
              refined_accs
          with
          | Some r when r.Analysis.addr <> b.Analysis.addr ->
            tightened :=
              ( b.Analysis.insn_addr,
                graph.Supergraph.nodes.(nid).Supergraph.func,
                b.Analysis.addr,
                r.Analysis.addr )
              :: !tightened
          | _ -> ())
        base_accs)
    value.Analysis.accesses;
  ( {
      ei_domain = Analysis.domain_name domain;
      ei_funcs = esc.Analysis.esc_funcs;
      ei_transfers = esc.Analysis.esc_transfers;
      ei_slots = esc.Analysis.esc_slots;
      ei_discharged_loops = List.rev !discharged;
      ei_tightened_accesses = List.rev !tightened;
    },
    { Loop_bounds.per_loop } )

(* Loop and value analysis. The interval pass runs everywhere; under
   [Auto] the functions {!funcs_to_escalate} names are re-solved under the
   interval x octagon reduced product, and the refined result replaces the
   interval one for every downstream phase. The refinement is a per-node
   meet with the interval states, so it can only tighten (a checked run
   asserts this, E0503). Returns the escalation record, the final value
   result and loop bounds, and the summary-slice info to persist — [None]
   when escalated, because slices persist interval-domain facts only and
   refined states must never reach a warm interval run. *)
let value_phase ctx ~engine ~domain ~assumes ~slices graph loops =
  (* Under [Auto] the value_accesses precision counters are published once,
     from whichever result ends up final (escalated or not). *)
  let publish = domain = Analysis.Interval in
  let cancel = ctx.cancel in
  let value, vinfo, bounds =
    timed ctx Loop_value (fun () ->
        match
          let value, vinfo =
            match engine with
            | Summary ->
              let value, vinfo =
                Analysis.run_scheduled ~assumes
                  ?slice:(Option.map Report_cache.value_slice slices)
                  ?cancel ~publish graph loops
              in
              (value, Some vinfo)
            | Whole_program -> (Analysis.run ~assumes ?cancel ~publish graph loops, None)
          in
          (value, vinfo, Loop_bounds.analyze value loops)
        with
        | result -> result
        | exception Failure msg -> fatal ctx.c Diag.Loop_value ~code:"E0203" "%s" msg)
  in
  let funcs =
    match domain with
    | Analysis.Interval -> []
    | Analysis.Auto -> funcs_to_escalate graph loops value bounds
  in
  match funcs with
  | [] ->
    if not publish then Analysis.publish_access_metrics value.Analysis.accesses;
    (None, value, bounds, vinfo)
  | funcs -> (
    match
      timed ctx Octagon (fun () ->
          let esc = Analysis.escalate ~assumes ?cancel ~funcs value loops in
          (esc, Loop_bounds.analyze ~rel:esc.Analysis.esc_rel esc.Analysis.esc_result loops))
    with
    | exception Failure msg ->
      (* Non-convergence within the budget: keep the sound interval
         result; the escalation is an optimisation, never a requirement. *)
      warn ctx.c Diag.Loop_value ~code:"W0501"
        "octagon escalation abandoned (%s); keeping the interval result" msg;
      Analysis.publish_access_metrics value.Analysis.accesses;
      (None, value, bounds, vinfo)
    | esc, refined_bounds ->
      let info, bounds =
        merge_escalation ~domain graph loops value bounds esc refined_bounds
      in
      Diag.add ctx.c
        (Diag.make Diag.Info Diag.Loop_value ~code:"W0501"
           (Printf.sprintf "value analysis escalated to the octagon domain for %d function(s): %s"
              (List.length info.ei_funcs)
              (String.concat ", " info.ei_funcs)));
      let refined = esc.Analysis.esc_result in
      Analysis.publish_access_metrics refined.Analysis.accesses;
      (Some info, refined, bounds, None))

(* The flow facts of the path problem: the annotation's, plus one pass per
   block for each irreducible region no annotation fact covers (those
   regions are returned too, for flow_phase to report as holes). *)
let path_facts c program (graph : Supergraph.t) (loops : Loops.info) annot =
  let facts = facts_of_annot c graph program annot in
  let user_fact_nodes = List.concat_map (fun f -> List.map fst f.Ipet.fact_coeffs) facts in
  let uncovered =
    List.filter
      (fun scc -> not (List.exists (fun n -> List.mem n user_fact_nodes) scc))
      loops.Loops.irreducible
  in
  let synthetic =
    List.concat_map
      (List.map (fun n ->
           { Ipet.fact_coeffs = [ (n, 1) ]; fact_bound = 1;
             fact_label = "degradation: irreducible region" }))
      uncovered
  in
  (facts @ synthetic, uncovered)

(* Overlay the annotation loop bounds on the derived verdicts, degrade the
   loops left unbounded and the irreducible regions without user flow
   facts to holes, and collect the flow facts the path phase consumes.
   [effective] comes out most recent first, as the report has always kept
   it. *)
let flow_phase ctx program (graph : Supergraph.t) (loops : Loops.info) value
    (bounds : Loop_bounds.t) =
  let c = ctx.c in
  let effective = ref [] and unbounded = ref [] in
  Array.iteri
    (fun li verdict ->
      let annotated =
        List.filter_map
          (fun (place, bound) ->
            if loop_matches_place graph program loops li place then Some bound else None)
          ctx.annot.Annot.loop_bounds
      in
      let annotated = match annotated with [] -> None | bs -> Some (List.fold_left min max_int bs) in
      match (verdict, annotated) with
      | Loop_bounds.Bounded b, Some a -> effective := (li, min b a) :: !effective
      | Loop_bounds.Bounded b, None -> effective := (li, b) :: !effective
      | Loop_bounds.Unbounded _, Some a -> effective := (li, a) :: !effective
      | Loop_bounds.Unbounded (_, reason), None ->
        (* Loops of unreachable code are irrelevant. *)
        if Analysis.reachable value loops.Loops.loops.(li).Loops.header then begin
          unbounded := (li, reason) :: !unbounded;
          (* Degrade: exclude the loop's iterations (back-edge count 0) so
             every other function still gets a bound; the result is partial. *)
          effective := (li, 0) :: !effective;
          let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
          let header = hn.Supergraph.block.Func_cfg.entry in
          let func = hn.Supergraph.func in
          ctx.holes <- Hole_loop { header; func; reason } :: ctx.holes;
          warn c Diag.Loop_value ~code:"W0302"
            ~loc:(Diag.at_addr ~func header)
            ~hint:(Printf.sprintf "loop at 0x%x bound <N>" header)
            "loop cannot be bounded automatically (%s); iterations beyond the first are \
             excluded from the bound"
            reason
        end)
    bounds.Loop_bounds.per_loop;
  let facts, uncovered = path_facts c program graph loops ctx.annot in
  List.iter
    (fun scc ->
      let func = graph.Supergraph.nodes.(List.hd scc).Supergraph.func in
      let blocks =
        List.sort_uniq compare
          (List.map (fun n -> graph.Supergraph.nodes.(n).Supergraph.block.Func_cfg.entry) scc)
      in
      ctx.holes <- Hole_irreducible { blocks; func } :: ctx.holes;
      warn c Diag.Loop_value ~code:"W0303"
        ~loc:(Diag.at_addr ~func (List.hd blocks))
        ~hint:
          (String.concat "\n" (List.map (fun a -> Printf.sprintf "maxcount at 0x%x <= <N>" a) blocks))
        "irreducible region (%d blocks) has no automatic bound; limited to one pass per block \
         in the bound"
        (List.length scc))
    uncovered;
  (!effective, !unbounded, facts)

(* Cache analysis (must/may classification) and then persistence. Cache
   rows are gated on the value fixpoint: a row is only offered at nodes
   whose value states converged to the ones recorded with it, because the
   cache transfer replays this run's access sets (Report_cache.cache_slice). *)
let cache_phase ctx ~engine ~slices program graph loops value =
  check_cancel ctx;
  let region_hints = region_hint_table ctx.c program ctx.annot graph in
  let cancel = ctx.cancel in
  let cache, cinfo =
    timed ctx Cache (fun () ->
        match engine with
        | Summary ->
          let cache, cinfo =
            Cache_analysis.run_scheduled
              ?slice:(Option.map (fun s -> Report_cache.cache_slice s value) slices)
              ?cancel ctx.hw value ~region_hints
          in
          (cache, Some cinfo)
        | Whole_program -> (Cache_analysis.run ?cancel ctx.hw value ~region_hints, None))
  in
  check_cancel ctx;
  let persistence =
    timed ctx Persistence (fun () -> Wcet_cache.Persistence.compute ctx.hw value loops cache)
  in
  (cache, cinfo, persistence)

let backend_runs_of (res : Portfolio.result) ~winner =
  List.map
    (fun (r : Portfolio.run) ->
      {
        br_name = r.Portfolio.r_name;
        br_bound = (match r.Portfolio.r_outcome with Ok s -> Some s.Ipet.wcet | Error _ -> None);
        br_error =
          (match r.Portfolio.r_outcome with
          | Ok _ -> None
          | Error e -> Some (e.Path_analysis.err_code, e.Path_analysis.err_detail));
        br_wall_ms = r.Portfolio.r_wall_ms;
        br_winner = r.Portfolio.r_name = winner;
      })
    res.Portfolio.p_runs

(* No backend produced a bound: fail with IPET's error when it has one,
   else with the first backend error. *)
let path_failure ctx (res : Portfolio.result) =
  let error_of r = match r.Portfolio.r_outcome with Error e -> Some e | Ok _ -> None in
  let e =
    match List.find_opt (fun r -> r.Portfolio.r_name = "ipet") res.Portfolio.p_runs with
    | Some { Portfolio.r_outcome = Error e; _ } -> e
    | _ -> (
      match List.find_map error_of res.Portfolio.p_runs with
      | Some e -> e
      | None -> Path_analysis.internal "no path backend was configured")
  in
  let msg = Option.value ~default:"path analysis failed" (Diag.describe e.Path_analysis.err_code) in
  fatal ctx.c Diag.Path ~code:e.Path_analysis.err_code ~hint:e.Path_analysis.err_detail "%s: %s"
    (phase_name Path) msg

(* Path analysis. The production portfolio is IPET plus the model checker;
   a checked run adds the structural constraint solver as the model
   checker's oracle (mc <= csolve) and arms the witness cross-check. A
   sound csolve can never win a run that passes the cross-check (see
   {!Portfolio}), so checked and unchecked runs report the same bound and
   the same winner. *)
let path_phase ctx ~checks ~path_backend (spec : Ipet.spec) loops =
  check_cancel ctx;
  timed ctx Path (fun () ->
      let backends : (module Path_analysis.BACKEND) list =
        match path_backend with
        | Path_analysis.Ipet -> [ (module Ipet) ]
        | Path_analysis.Mc -> [ (module Wcet_path.Mc) ]
        | Path_analysis.Portfolio ->
          (module Ipet) :: (module Wcet_path.Mc)
          :: (if checks then [ (module Wcet_path.Csolve) ] else [])
      in
      let res = Portfolio.run ~paranoid:checks ~backends spec loops in
      (* In portfolio mode a budget-exhausted backend is excluded with a
         warning; a single requested backend failing is fatal. *)
      if path_backend = Path_analysis.Portfolio then
        List.iter
          (fun b ->
            warn ctx.c Diag.Path ~code:"W0305"
              "path backend %s is intractable here; the portfolio continues without it" b)
          res.Portfolio.p_intractable;
      if res.Portfolio.p_disagreements <> [] then
        fatal ctx.c Diag.Path ~code:"E0303" "%s: %s" (phase_name Path)
          (String.concat "; " res.Portfolio.p_disagreements);
      match res.Portfolio.p_best with
      | Some (winner, sol) -> (sol, backend_runs_of res ~winner)
      | None -> path_failure ctx res)

let analyze_inner ~hw ~annot ~engine ~domain ~path_backend ~checks ?cancel program =
  let ctx = { c = Diag.collector (); hw; annot; cancel; phases = []; holes = [] } in
  let assumes, graph, loops = decode ctx program in
  (* Per-function summary rows from the persistent cache: components whose
     members all carry rows recorded under the inputs delivered this run
     are applied without re-transferring a node. *)
  let slices =
    match engine with
    | Summary -> Report_cache.load_slices ~hw ~annot ~assumes graph
    | Whole_program -> None
  in
  let escalation, value, derived_bounds, vinfo =
    value_phase ctx ~engine ~domain ~assumes ~slices graph loops
  in
  let effective_bounds, unbounded_loops, facts =
    flow_phase ctx program graph loops value derived_bounds
  in
  let cache, cinfo, persistence = cache_phase ctx ~engine ~slices program graph loops value in
  let timing = timed ctx Pipeline (fun () -> Block_timing.compute hw value cache ~persistence) in
  let solution, backend_runs =
    path_phase ctx ~checks ~path_backend
      { Ipet.value; times = timing.Block_timing.wcet; loop_bounds = effective_bounds; facts }
      loops
  in
  (match (vinfo, cinfo) with
  | Some vinfo, Some cinfo -> Report_cache.save_slices ~hw ~annot ~assumes value vinfo cache cinfo
  | _ -> ());
  {
    program;
    hw;
    graph;
    loops;
    value;
    escalation;
    derived_bounds;
    effective_bounds;
    unbounded_loops;
    cache;
    timing;
    solution;
    path_backend = Path_analysis.choice_name path_backend;
    backend_runs;
    wcet = solution.Ipet.wcet;
    bcet = best_case_bound value timing;
    verdict = (if ctx.holes = [] then Complete else Partial);
    holes = List.rev ctx.holes;
    diagnostics = Diag.items ctx.c;
    phase_seconds = List.rev ctx.phases;
  }

(* ---- Cross-checks ------------------------------------------------------ *)

(* Option-lifted state relations: a missing state is an unreached node. *)
let leq_opt leq a b =
  match (a, b) with None, _ -> true | Some _, None -> false | Some a, Some b -> leq a b

let eq_opt eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> eq a b
  | None, Some _ | Some _, None -> false

(* First node whose in- or out-state breaks [rel] between two solves. *)
let first_node_breaking rel (a_in, a_out) (b_in, b_out) =
  let n = Array.length a_in in
  let rec go i =
    if i >= n then None
    else if rel a_in.(i) b_in.(i) && rel a_out.(i) b_out.(i) then go (i + 1)
    else Some i
  in
  go 0

(* E0503: an escalation may only ever tighten. The refined states must be
   leq the interval states at every node, no loop bound may be lost or
   raised, and the escalated WCET must not exceed a [Complete] interval
   bound (a [Partial] one excludes the very holes — e.g. loop iterations
   beyond the first — the escalation discharged, so it is legitimately
   smaller). *)
let check_escalation c ~(base : report) (r : report) =
  let value = r.value and bv = base.value in
  (match
     first_node_breaking (leq_opt Wcet_value.State.leq)
       (value.Analysis.node_in, value.Analysis.node_out)
       (bv.Analysis.node_in, bv.Analysis.node_out)
   with
  | Some i ->
    fatal c Diag.Loop_value ~code:"E0503"
      ~loc:(Diag.in_func r.graph.Supergraph.nodes.(i).Supergraph.func)
      "octagon-refined value state is not below the interval state at node %d" i
  | None -> ());
  Array.iteri
    (fun li verdict ->
      match (base.derived_bounds.Loop_bounds.per_loop.(li), verdict) with
      | Loop_bounds.Bounded a, Loop_bounds.Bounded b when b > a ->
        fatal c Diag.Loop_value ~code:"E0503"
          "octagon loop bound %d exceeds the interval bound %d for loop %d" b a li
      | Loop_bounds.Bounded _, Loop_bounds.Unbounded _ ->
        fatal c Diag.Loop_value ~code:"E0503"
          "octagon escalation lost the interval bound of loop %d" li
      | _ -> ())
    r.derived_bounds.Loop_bounds.per_loop;
  if base.verdict = Complete && r.wcet > base.wcet then
    fatal c Diag.Path ~code:"E0503" "octagon-escalated WCET bound %d exceeds the interval bound %d"
      r.wcet base.wcet

(* E0204: the summary engine's value and cache states must equal a
   whole-program solve at every node. Divergence means a summary was
   applied where it should not have been — fail loudly rather than risk
   an unsound bound. *)
let check_summary c ~annot (base : report) =
  let program = base.program and graph = base.graph in
  let scratch = Diag.collector () in
  let assumes = assumes_of_annot scratch program annot in
  let region_hints = region_hint_table scratch program annot graph in
  let wp_value = Analysis.run ~assumes graph base.loops in
  let diverges phase what i =
    fatal c phase ~code:"E0204"
      ~loc:(Diag.in_func graph.Supergraph.nodes.(i).Supergraph.func)
      "summary-engine %s state diverges from the whole-program solve at node %d" what i
  in
  Option.iter (diverges Diag.Loop_value "value")
    (first_node_breaking (eq_opt Wcet_value.Summary.equal_state)
       (base.value.Analysis.node_in, base.value.Analysis.node_out)
       (wp_value.Analysis.node_in, wp_value.Analysis.node_out));
  let wp_cache = Cache_analysis.run base.hw wp_value ~region_hints in
  Option.iter (diverges Diag.Cache "cache")
    (first_node_breaking (eq_opt Cache_analysis.equal_cstate)
       (base.cache.Cache_analysis.node_in, base.cache.Cache_analysis.node_out)
       (wp_cache.Cache_analysis.node_in, wp_cache.Cache_analysis.node_out))

(* The oracles of a checked run, over its finished report. The base is the
   report itself, or — when the run escalated — an interval re-run of the
   same inputs; E0503 compares the escalation against it and E0204 (summary
   engine only) compares it against a whole-program solve. The path
   cross-check (E0303) already ran inside the path phase. *)
let cross_check ~annot ~engine ~path_backend ?cancel (r : report) =
  let c = Diag.collector () in
  List.iter (Diag.add c) r.diagnostics;
  let base =
    match r.escalation with
    | None -> r
    | Some _ ->
      let base =
        analyze_inner ~hw:r.hw ~annot ~engine ~domain:Analysis.Interval ~path_backend
          ~checks:true ?cancel r.program
      in
      check_escalation c ~base r;
      base
  in
  if engine = Summary then check_summary c ~annot base

(* The program-level report entry: a hit skips every phase and is
   bit-identical to the run that wrote it. *)
let cached_analysis ~hw ~annot ~engine ~domain ~path_backend ?cancel program =
  let run () = analyze_inner ~hw ~annot ~engine ~domain ~path_backend ~checks:false ?cancel program in
  if not (Report_cache.enabled ()) then run ()
  else
    let engine_s = engine_name engine
    and domain_s = Analysis.domain_name domain
    and path_s = Path_analysis.choice_name path_backend in
    let cached =
      match
        Report_cache.find_report ~hw ~annot ~engine:engine_s ~domain:domain_s ~path:path_s program
      with
      | None -> None
      | Some payload -> (
        (* The envelope checksum and version already passed; a decode
           failure here means marshal-layout drift — degrade to a
           recompute, reclassifying the hit as a miss. *)
        match (Marshal.from_string payload 0 : report) with
        | r -> Some r
        | exception _ ->
          Report_cache.invalidate_report ~hw ~annot ~engine:engine_s ~domain:domain_s
            ~path:path_s program;
          None)
    in
    match cached with
    | Some r -> r
    | None ->
      let r = run () in
      Report_cache.save_report ~hw ~annot ~engine:engine_s ~domain:domain_s ~path:path_s program
        (Marshal.to_string r []);
      r

let analyze ?(hw = Hw_config.default) ?(annot = Annot.empty) ?(engine = Summary)
    ?(domain = Analysis.Interval) ?(path_backend = Path_analysis.Portfolio) ?(checks = false)
    ?cancel program =
  Trace.with_span ~cat:"analyzer" "analyze" (fun () ->
      let r =
        if checks then begin
          let r = analyze_inner ~hw ~annot ~engine ~domain ~path_backend ~checks ?cancel program in
          cross_check ~annot ~engine ~path_backend ?cancel r;
          r
        end
        else cached_analysis ~hw ~annot ~engine ~domain ~path_backend ?cancel program
      in
      Trace.add_attr "nodes" (Trace.Int (Array.length r.graph.Supergraph.nodes));
      Trace.add_attr "loops" (Trace.Int (Array.length r.loops.Loops.loops));
      Trace.add_attr "wcet" (Trace.Int r.wcet);
      (match r.verdict with
      | Complete ->
        Trace.add_attr "verdict" (Trace.Str "complete");
        Metrics.incr m_runs_complete 1
      | Partial ->
        Trace.add_attr "verdict" (Trace.Str "partial");
        Metrics.incr m_runs_partial 1);
      r)

let path_spec ?(annot = Annot.empty) r =
  let facts, _ = path_facts (Diag.collector ()) r.program r.graph r.loops annot in
  { Ipet.value = r.value; times = r.timing.Block_timing.wcet; loop_bounds = r.effective_bounds; facts }

let analyze_modes ?hw ?domain ~base ~modes program =
  ("(all modes)", base) :: List.map (fun (name, annot) -> (name, Annot.merge base annot)) modes
  |> List.map (fun (name, annot) -> (name, analyze ?hw ?domain ~annot program))

let pp_hole ppf = function
  | Hole_call { site; func } ->
    Format.fprintf ppf "unresolved call at 0x%x in %s" site func
  | Hole_jump { site; func } ->
    Format.fprintf ppf "unresolved jump at 0x%x in %s" site func
  | Hole_loop { header; func; reason } ->
    Format.fprintf ppf "unbounded loop at 0x%x in %s (%s)" header func reason
  | Hole_irreducible { blocks; func } ->
    Format.fprintf ppf "irreducible region of %d blocks in %s" (List.length blocks) func

let pp_report ppf r =
  (match r.verdict with
  | Complete -> Format.fprintf ppf "@[<v>WCET bound: %d cycles (best-case bound: %d)@," r.wcet r.bcet
  | Partial ->
    Format.fprintf ppf
      "@[<v>WCET bound: %d cycles — PARTIAL: conditional on %d analysis hole(s) (best-case \
       bound: %d)@,"
      r.wcet (List.length r.holes) r.bcet);
  Format.fprintf ppf "graph: %d nodes, %d contexts, %d loops@,"
    (Array.length r.graph.Supergraph.nodes)
    (Array.length r.graph.Supergraph.contexts)
    (Array.length r.loops.Loops.loops);
  (match r.escalation with
  | None -> ()
  | Some e ->
    Format.fprintf ppf
      "octagon escalation: %d function(s), %d transfers, %d slot(s), %d loop(s) discharged, \
       %d access(es) tightened@,"
      (List.length e.ei_funcs) e.ei_transfers (List.length e.ei_slots)
      (List.length e.ei_discharged_loops)
      (List.length e.ei_tightened_accesses));
  (match r.backend_runs with
  | [] | [ _ ] -> ()
  | runs ->
    List.iter
      (fun b ->
        match b.br_bound with
        | Some bound ->
          Format.fprintf ppf "path backend %s: %d cycles, %d ms%s@," b.br_name bound
            b.br_wall_ms
            (if b.br_winner then " (tightest)" else "")
        | None ->
          let code = match b.br_error with Some (code, _) -> code | None -> "?" in
          Format.fprintf ppf "path backend %s: failed (%s), %d ms@," b.br_name code
            b.br_wall_ms)
      runs);
  List.iter (fun h -> Format.fprintf ppf "hole: %a@," pp_hole h) r.holes;
  List.iter
    (fun (li, b) ->
      let hn = r.graph.Supergraph.nodes.(r.loops.Loops.loops.(li).Loops.header) in
      Format.fprintf ppf "loop at 0x%x in %s: bound %d@," hn.Supergraph.block.Func_cfg.entry
        hn.Supergraph.func b)
    r.effective_bounds;
  if r.diagnostics <> [] then Format.fprintf ppf "%a@," Diag.pp_list r.diagnostics;
  List.iter
    (fun (phase, dt) -> Format.fprintf ppf "%s: %.1f ms@," (phase_name phase) (dt *. 1000.))
    r.phase_seconds;
  Format.fprintf ppf "@]"

let hole_to_json = function
  | Hole_call { site; func } ->
    Wcet_diag.Json.Obj
      [ ("kind", String "unresolved-call"); ("site", Int site); ("func", String func) ]
  | Hole_jump { site; func } ->
    Wcet_diag.Json.Obj
      [ ("kind", String "unresolved-jump"); ("site", Int site); ("func", String func) ]
  | Hole_loop { header; func; reason } ->
    Wcet_diag.Json.Obj
      [
        ("kind", String "unbounded-loop");
        ("header", Int header);
        ("func", String func);
        ("reason", String reason);
      ]
  | Hole_irreducible { blocks; func } ->
    Wcet_diag.Json.Obj
      [
        ("kind", String "irreducible-region");
        ("blocks", List (List.map (fun b -> Wcet_diag.Json.Int b) blocks));
        ("func", String func);
      ]

let report_to_json r =
  let open Wcet_diag.Json in
  Obj
    [
      ("wcet", Int r.wcet);
      ("bcet", Int r.bcet);
      ("verdict", String (match r.verdict with Complete -> "complete" | Partial -> "partial"));
      ("nodes", Int (Array.length r.graph.Supergraph.nodes));
      ("contexts", Int (Array.length r.graph.Supergraph.contexts));
      ("holes", List (List.map hole_to_json r.holes));
      ( "escalation",
        match r.escalation with
        | None -> Null
        | Some e ->
          let aval_json v =
            match Aval.range v with
            | Some (lo, hi) -> Obj [ ("lo", Int lo); ("hi", Int hi) ]
            | None -> Null
          in
          Obj
            [
              ("domain", String e.ei_domain);
              ("functions", List (List.map (fun f -> String f) e.ei_funcs));
              ("transfers", Int e.ei_transfers);
              ("slots", List (List.map (fun s -> Int s) e.ei_slots));
              ( "discharged_loops",
                List
                  (List.map
                     (fun (addr, func, cause) ->
                       Obj
                         [
                           ("header", Int addr); ("func", String func); ("cause", String cause);
                         ])
                     e.ei_discharged_loops) );
              ( "tightened_accesses",
                List
                  (List.map
                     (fun (addr, func, before, after) ->
                       Obj
                         [
                           ("addr", Int addr);
                           ("func", String func);
                           ("interval", aval_json before);
                           ("octagon", aval_json after);
                         ])
                     e.ei_tightened_accesses) );
            ] );
      ("diagnostics", List (List.map Diag.to_json r.diagnostics));
      ("path_backend", String r.path_backend);
      ( "path_backends",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("name", String b.br_name);
                   ("bound", match b.br_bound with Some x -> Int x | None -> Null);
                   ( "error",
                     match b.br_error with
                     | Some (code, detail) ->
                       Obj [ ("code", String code); ("detail", String detail) ]
                     | None -> Null );
                   ("wall_ms", Int b.br_wall_ms);
                   ("winner", Bool b.br_winner);
                 ])
             r.backend_runs) );
      ( "loops",
        List
          (List.map
             (fun (li, b) ->
               let hn = r.graph.Supergraph.nodes.(r.loops.Loops.loops.(li).Loops.header) in
               Obj
                 [
                   ("header", Int hn.Supergraph.block.Func_cfg.entry);
                   ("func", String hn.Supergraph.func);
                   ("bound", Int b);
                 ])
             r.effective_bounds) );
      ( "phases",
        List
          (List.map
             (fun (phase, dt) ->
               Obj [ ("name", String (phase_name phase)); ("seconds", Float dt) ])
             r.phase_seconds) );
    ]

let failure_to_json ds =
  let open Wcet_diag.Json in
  Obj
    [
      ("wcet", Null);
      ("verdict", String "failed");
      ("diagnostics", List (List.map Diag.to_json ds));
    ]
