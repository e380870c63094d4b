(** The static WCET analyzer: Figure 1 of the paper, end to end.

    [analyze] drives the phases in order — decoding / CFG reconstruction
    (with iterative indirect-call resolution), loop and value analysis,
    cache analysis, pipeline (basic-block timing) analysis, and IPET path
    analysis — and returns both the bound and every intermediate artifact
    for inspection. The per-phase wall-clock times are recorded, which is
    what the F1 experiment prints.

    Annotations supply the design-level information of Section 4.3; the
    analyzer trusts them.

    {2 Graceful degradation}

    Problems that are local to one construct do not abort the analysis.
    Instead the construct becomes an {e analysis hole} — it is excluded
    from the bound, a structured {!Wcet_diag.Diag.t} diagnostic records
    what was excluded and how to annotate it away, and the report's
    [verdict] becomes {!Partial}. A partial WCET is explicitly conditional:
    it bounds every path that avoids the holes, and is a true bound for the
    whole program only once each hole is discharged (by annotation or by
    showing the hole unreachable). The degradations are:

    - unresolvable indirect call (W0301): the call is skipped — control
      falls through to the return site; the callee's cost is excluded.
    - unresolvable indirect jump (W0304): a dead end; execution beyond the
      jump is excluded.
    - loop with no derived or annotated bound (W0302): iterations beyond
      the first entry are excluded (back-edge count 0).
    - irreducible region with no covering user flow fact (W0303): limited
      to one pass per block.

    Global problems (undecodable code, unannotated recursion, context
    explosion, value-analysis divergence, an infeasible or unbounded path
    problem) are still fatal and raise {!Analysis_failed} carrying every
    diagnostic collected so far. *)

(** A fatal analysis failure: the payload always contains at least one
    [Error]-severity diagnostic, plus any warnings emitted before the
    failure. *)
exception Analysis_failed of Wcet_diag.Diag.t list

(** The timed phases of Figure 1, in run order. [Octagon] (the
    relational re-solve of the escalated functions) appears only when an
    escalation ran; [Persistence] is the cache-persistence analysis that
    follows the must/may classification. *)
type phase = Decode | Loop_value | Octagon | Cache | Persistence | Pipeline | Path

(** [Complete] bounds every execution; [Partial] is conditional on the
    report's [holes]. *)
type confidence = Complete | Partial

(** One excluded construct of a partial analysis. *)
type hole =
  | Hole_call of { site : int; func : string }
  | Hole_jump of { site : int; func : string }
  | Hole_loop of { header : int; func : string; reason : string }
  | Hole_irreducible of { blocks : int list; func : string }

(** What an octagon escalation changed, kept in the report so the
    guidelines auditor can mark the interval-pass findings the relational
    pass resolved ([discharged-by: octagon]). *)
type esc_info = {
  ei_domain : string;  (** requested domain: ["auto"] *)
  ei_funcs : string list;  (** functions that triggered the escalation *)
  ei_transfers : int;  (** product-domain transfer count *)
  ei_slots : int list;  (** tracked stack/global word addresses *)
  ei_discharged_loops : (int * string * string) list;
      (** (header addr, func, interval cause) of loops the interval pass
          left unbounded and the relational pass bounded *)
  ei_tightened_accesses : (int * string * Wcet_value.Aval.t * Wcet_value.Aval.t) list;
      (** (insn addr, func, interval addr, refined addr) of accesses whose
          address interval strictly tightened under the octagon *)
}

(** One path-analysis backend's outcome inside a portfolio run (also
    recorded, as a singleton list, when a single backend is forced). *)
type backend_run = {
  br_name : string;  (** ["ipet"], ["mc"], or ["csolve"] in a checked run *)
  br_bound : int option;  (** [None] = the backend failed *)
  br_error : (string * string) option;  (** (diag code, detail) on failure *)
  br_wall_ms : int;
  br_winner : bool;  (** supplied the bound the report carries *)
}

type report = {
  program : Pred32_asm.Program.t;
  hw : Pred32_hw.Hw_config.t;
  graph : Wcet_cfg.Supergraph.t;
  loops : Wcet_cfg.Loops.info;
  value : Wcet_value.Analysis.result;
  escalation : esc_info option;
      (** [Some] iff a relational (octagon) escalation ran and refined
          [value]/[derived_bounds]; [None] under [Interval] and when [Auto]
          found nothing to escalate *)
  derived_bounds : Wcet_value.Loop_bounds.t;
  effective_bounds : (int * int) list;  (** (loop index, bound) after annotations *)
  unbounded_loops : (int * string) list;  (** loops degraded to holes, with reasons *)
  cache : Wcet_cache.Cache_analysis.result;
  timing : Wcet_pipeline.Block_timing.t;
  solution : Wcet_ipet.Ipet.solution;
  path_backend : string;  (** requested backend configuration (a {!Wcet_path.Path_analysis.choice} name) *)
  backend_runs : backend_run list;
      (** per-backend bounds/verdicts/wall times, in run order; a singleton
          unless the portfolio ran *)
  wcet : int;  (** cycles, from program entry to halt; partial if [verdict = Partial] *)
  bcet : int;  (** best-case lower bound (shortest feasible walk) *)
  verdict : confidence;
  holes : hole list;
  diagnostics : Wcet_diag.Diag.t list;  (** warnings collected during analysis *)
  phase_seconds : (phase * float) list;
}

(** Fixpoint engine for the value and cache analyses. [Summary] (the
    default) condenses the call graph into strongly connected components
    and solves bottom-up, one component at a time; components covered by
    persisted summary rows recorded under the same external inputs are
    applied without transferring — a one-function edit re-analyzes only
    that function's components and the components whose inputs actually
    changed. [Whole_program] is the classic single-worklist solve and the
    oracle of the E0204 check (see [checks] below). *)
type engine = Summary | Whole_program

(** ["summary"] / ["whole-program"]. *)
val engine_name : engine -> string

(** [analyze ?hw ?annot ?engine program] raises {!Analysis_failed} only on
    global failures (see above); local problems degrade to [holes] with a
    [Partial] verdict. The whole analysis runs on the calling domain.

    [domain] selects the value domain ({!Wcet_value.Analysis.domain},
    default [Interval] — bit-identical to the pre-octagon analyzer).
    [Auto] re-solves, under the interval x octagon reduced product, only
    the functions whose interval results left imprecise data accesses or
    input-dependent/aliased loop-bound causes. The refined result feeds
    every downstream phase, so escalation can tighten memory-region
    classification, cache access sets and loop bounds — never loosen them.

    [path_backend] selects the path-analysis backend
    ({!Wcet_path.Path_analysis.choice}, default [Portfolio]): [Ipet] is the
    ILP encoding, [Mc] the slicing + bounded-model-checking backend.
    [Portfolio] runs both, takes the tightest sound bound and cross-checks
    the results — a disagreement beyond attributable slack aborts with
    E0303.

    [checks] (default [false]; [wcet_tool check] sets it) runs the
    analysis's oracles after the pipeline and aborts on the first
    violation:
    - E0303: the portfolio adds the structural constraint solver as the
      model checker's oracle (mc <= csolve) and requires every complete
      backend to account for the certified witness paths of the others
      on fact-free programs. A sound csolve never wins, so the bound and
      the winner are those of an unchecked run;
    - E0503: an escalated run is compared against an interval re-run —
      node states and loop bounds may only tighten, and the bound may not
      exceed a [Complete] interval bound;
    - E0204 ([Summary] only): the value and cache states of the interval
      result (the report itself, or the re-run when escalated) equal a
      [Whole_program] solve at every node.
    A checked run neither reads nor writes the program-level report
    entry, so a warm store never skips the oracles; per-function summary
    slices load and save as usual, because they are what E0204 audits.

    [cancel] is a cooperative cancellation token (the daemon's per-request
    deadline): it is polled by the value/cache fixpoints before every
    transfer and by the analyzer between phases; when it returns [true],
    {!Wcet_util.Fixpoint.Cancelled} escapes with no partial report. *)
val analyze :
  ?hw:Pred32_hw.Hw_config.t ->
  ?annot:Wcet_annot.Annot.t ->
  ?engine:engine ->
  ?domain:Wcet_value.Analysis.domain ->
  ?path_backend:Wcet_path.Path_analysis.choice ->
  ?checks:bool ->
  ?cancel:(unit -> bool) ->
  Pred32_asm.Program.t ->
  report

(** [path_spec ?annot r] is the path problem [analyze ~annot] gave its
    path backends for report [r]: the value result, the per-node times, the
    effective loop bounds and the flow facts (the annotation's plus the
    one-pass facts of uncovered irreducible regions). Re-running a backend
    on it reproduces that backend's bound and witness. *)
val path_spec : ?annot:Wcet_annot.Annot.t -> report -> Wcet_path.Path_analysis.spec

(** [analyze_modes ?hw ~base ~modes program] runs one analysis per operating
    mode (merging each mode's annotations into [base]) plus the
    mode-oblivious analysis, returning [(mode name, report)] pairs with
    [None] keyed as ["(all modes)"] first. *)
val analyze_modes :
  ?hw:Pred32_hw.Hw_config.t ->
  ?domain:Wcet_value.Analysis.domain ->
  base:Wcet_annot.Annot.t ->
  modes:(string * Wcet_annot.Annot.t) list ->
  Pred32_asm.Program.t ->
  (string * report) list

val phase_name : phase -> string
val pp_hole : Format.formatter -> hole -> unit
val pp_report : Format.formatter -> report -> unit

(** Machine-readable report: wcet, bcet, verdict, holes, diagnostics,
    per-loop effective bounds, per-phase times. Process-global metrics and
    traces are not part of a report ([wcet_tool analyze --profile] adds
    them to its own output). *)
val report_to_json : report -> Wcet_diag.Json.t

(** JSON object for a failed analysis ([Analysis_failed] payload):
    [{"wcet": null, "verdict": "failed", "diagnostics": [...]}]. *)
val failure_to_json : Wcet_diag.Diag.t list -> Wcet_diag.Json.t
