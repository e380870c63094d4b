(* Span tracing: nested, wall-clocked phases of the analyzer.

   A span is entered and exited around a phase (or sub-phase); nesting is
   tracked per thread, so the harness's corpus fan-out (one domain per
   worker) and the daemon's worker systhreads (many threads on one domain)
   each trace correctly. Completed spans are appended to one
   mutex-protected buffer and can be rendered two ways:

   - a Chrome trace-event file ("X" complete events, microsecond
     timestamps), loadable in Perfetto / chrome://tracing, one event per
     line so the file is also greppable;
   - a human-readable text profile (indented span tree with durations and
     attributes), printed by `wcet_tool analyze --profile`.

   While Obs.on () is false, with_span runs its thunk directly — no
   allocation, no clock read. Timestamps come from Util.Mono_clock
   (CLOCK_MONOTONIC), so durations never go negative. *)

module Json = Wcet_diag.Json

type attr = Int of int | Float of float | Str of string

type event = {
  name : string;
  cat : string;
  tid : int;  (* thread id (Thread.id), unique across domains *)
  depth : int;  (* nesting depth at entry, 0 = root *)
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * attr) list;
}

type open_span = {
  s_name : string;
  s_cat : string;
  s_start : int64;
  s_depth : int;
  mutable s_attrs : (string * attr) list;  (* reversed *)
}

(* Open spans, one stack per thread. A domain-local stack would be shared
   by every systhread of the domain, so concurrent daemon requests would
   pop each other's spans. The table is touched only while tracing is on. *)
let stacks_mutex = Mutex.create ()
let stacks : (int, open_span list) Hashtbl.t = Hashtbl.create 8

let self_id () = Thread.id (Thread.self ())

let get_stack id =
  Mutex.protect stacks_mutex (fun () ->
      Option.value ~default:[] (Hashtbl.find_opt stacks id))

let set_stack id stack =
  Mutex.protect stacks_mutex (fun () ->
      match stack with [] -> Hashtbl.remove stacks id | _ -> Hashtbl.replace stacks id stack)

let events_mutex = Mutex.create ()
let events_rev : event list ref = ref []
let n_events = ref 0
let n_dropped = ref 0

(* Backstop against unbounded growth on very long campaign runs; ~10 spans
   per analysis means even the full corpus check stays far below this. A
   ref so tests (and extreme campaigns) can tighten or widen the cap. *)
let max_events = ref 262_144

let buffer_capacity () = !max_events
let set_buffer_capacity n = max_events := max 1 n

let m_dropped =
  Metrics.counter ~name:"trace_events_dropped"
    ~help:"Completed spans discarded because the trace buffer was full" ()

let reset () =
  Mutex.lock events_mutex;
  events_rev := [];
  n_events := 0;
  n_dropped := 0;
  Mutex.unlock events_mutex;
  set_stack (self_id ()) []

let depth () = List.length (get_stack (self_id ()))

let dropped () = !n_dropped

let add_attr k v =
  if Obs.on () then
    match get_stack (self_id ()) with
    | [] -> ()
    | s :: _ -> s.s_attrs <- (k, v) :: s.s_attrs

let enter ~cat name =
  let id = self_id () in
  let stack = get_stack id in
  let span =
    {
      s_name = name;
      s_cat = cat;
      s_start = Wcet_util.Mono_clock.now_ns ();
      s_depth = List.length stack;
      s_attrs = [];
    }
  in
  set_stack id (span :: stack)

let exit_span () =
  let id = self_id () in
  match get_stack id with
  | [] -> ()
  | s :: rest ->
    set_stack id rest;
    let ev =
      {
        name = s.s_name;
        cat = s.s_cat;
        tid = id;
        depth = s.s_depth;
        start_ns = s.s_start;
        dur_ns = Int64.sub (Wcet_util.Mono_clock.now_ns ()) s.s_start;
        attrs = List.rev s.s_attrs;
      }
    in
    Mutex.lock events_mutex;
    if !n_events >= !max_events then begin
      incr n_dropped;
      Metrics.incr m_dropped 1
    end
    else begin
      events_rev := ev :: !events_rev;
      incr n_events
    end;
    Mutex.unlock events_mutex

let with_span ?(cat = "phase") ?(attrs = []) name f =
  if not (Obs.on ()) then f ()
  else begin
    enter ~cat name;
    List.iter (fun (k, v) -> add_attr k v) attrs;
    Fun.protect ~finally:exit_span f
  end

(* Completion order; stable for rendering because we re-sort by start. *)
let events () = List.rev !events_rev

let by_start evs =
  List.stable_sort
    (fun a b ->
      match compare a.tid b.tid with 0 -> Int64.compare a.start_ns b.start_ns | c -> c)
    evs

(* --- text profile --- *)

let pp_attr ppf (k, v) =
  match v with
  | Int i -> Format.fprintf ppf "%s=%d" k i
  | Float f -> Format.fprintf ppf "%s=%g" k f
  | Str s -> Format.fprintf ppf "%s=%s" k s

(* The profile aggregates spans by name path (parent chain of names),
   merged across threads, and sorts every sibling list by (total time
   descending, name ascending). Aggregation makes the structure — and with
   the name tiebreak, the ordering of near-equal rows — independent of
   thread scheduling, so two profiles of the same workload diff cleanly. *)
type agg = {
  mutable a_total_ns : int64;
  mutable a_count : int;
  mutable a_attrs : (string * attr) list;  (* shown only while a_count = 1 *)
  a_children : (string, agg) Hashtbl.t;
}

let new_agg () =
  { a_total_ns = 0L; a_count = 0; a_attrs = []; a_children = Hashtbl.create 4 }

let aggregate evs =
  let root = new_agg () in
  (* Most recent aggregation node per (tid, depth): scanning in start order
     means an event's parent is the latest shallower event of its thread. *)
  let cur : (int * int, agg) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let parent =
        if e.depth = 0 then root
        else Option.value ~default:root (Hashtbl.find_opt cur (e.tid, e.depth - 1))
      in
      let node =
        match Hashtbl.find_opt parent.a_children e.name with
        | Some n -> n
        | None ->
          let n = new_agg () in
          Hashtbl.add parent.a_children e.name n;
          n
      in
      node.a_total_ns <- Int64.add node.a_total_ns e.dur_ns;
      node.a_count <- node.a_count + 1;
      node.a_attrs <- (if node.a_count = 1 then e.attrs else []);
      Hashtbl.replace cur (e.tid, e.depth) node)
    evs;
  root

let pp_profile ppf () =
  let root = aggregate (by_start (events ())) in
  let children_sorted a =
    Hashtbl.fold (fun name node acc -> (name, node) :: acc) a.a_children []
    |> List.sort (fun (na, a) (nb, b) ->
           match Int64.compare b.a_total_ns a.a_total_ns with
           | 0 -> compare na nb
           | c -> c)
  in
  let rec pp_node depth (name, a) =
    let indent = String.make (2 * depth) ' ' in
    Format.fprintf ppf "%s%-*s %8.3f ms" indent
      (max 1 (28 - (2 * depth)))
      name
      (Int64.to_float a.a_total_ns /. 1e6);
    if a.a_count > 1 then Format.fprintf ppf "  x%d" a.a_count;
    if a.a_attrs <> [] then begin
      Format.fprintf ppf "  {";
      List.iteri
        (fun i at ->
          if i > 0 then Format.fprintf ppf ", ";
          pp_attr ppf at)
        a.a_attrs;
      Format.fprintf ppf "}"
    end;
    Format.fprintf ppf "@,";
    List.iter (pp_node (depth + 1)) (children_sorted a)
  in
  List.iter (pp_node 0) (children_sorted root);
  if !n_dropped > 0 then Format.fprintf ppf "(%d spans dropped past the buffer cap)@," !n_dropped

(* --- Chrome trace events --- *)

let attr_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s

let event_json e =
  Json.Obj
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String "X");
      ("ts", Json.Float (Int64.to_float e.start_ns /. 1e3));
      ("dur", Json.Float (Int64.to_float e.dur_ns /. 1e3));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) e.attrs));
    ]

let to_json () = Json.List (List.map event_json (by_start (events ())))

(* One event per line inside a JSON array: valid JSON for Perfetto, and
   line-oriented for grep. Written to a temp file in the target directory
   and renamed into place, so an interrupted run (the SIGINT/SIGTERM flush
   path) leaves either the complete trace or no trace — never a torn
   file. *)
let write_chrome path =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  let oc = open_out tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         let evs = by_start (events ()) in
         output_string oc "[\n";
         List.iteri
           (fun i e ->
             if i > 0 then output_string oc ",\n";
             output_string oc (Json.to_string (event_json e)))
           evs;
         output_string oc "\n]\n")
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
