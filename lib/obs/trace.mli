(** Span tracing: nested, wall-clocked analyzer phases.

    Spans nest per thread (each systhread, on any domain, has its own
    open-span stack); completed spans land in one process-wide buffer renderable as a Chrome
    trace-event file (Perfetto / chrome://tracing) or a human-readable
    text profile. While {!Obs.on} is false, {!with_span} runs its thunk
    directly — no allocation, no clock read. *)

type attr = Int of int | Float of float | Str of string

type event = {
  name : string;
  cat : string;
  tid : int;  (** thread id ([Thread.id]), unique across domains *)
  depth : int;  (** nesting depth at entry, 0 = root *)
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * attr) list;
}

(** [with_span name f] runs [f] inside a span. The span closes (and is
    recorded) even if [f] raises. [cat] defaults to ["phase"]; [attrs]
    are attached at entry, {!add_attr} appends more from inside. *)
val with_span : ?cat:string -> ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span of the calling thread
    (no-op if none is open or tracing is disabled). *)
val add_attr : string -> attr -> unit

(** Completed spans, in completion order. *)
val events : unit -> event list

(** Nesting depth of the calling thread's open-span stack (for tests). *)
val depth : unit -> int

(** Spans discarded past the buffer cap (also counted by the
    [trace_events_dropped] metric; a trace file written while this is
    nonzero is incomplete, reported as W0801 by the CLI). *)
val dropped : unit -> int

(** The buffer cap, in completed spans. [set_buffer_capacity] retunes it
    (clamped to at least 1) — for tests and extreme campaign runs; the
    default of 262144 comfortably covers the full corpus check. *)
val buffer_capacity : unit -> int

val set_buffer_capacity : int -> unit

(** Drop all completed spans and the calling thread's open stack. *)
val reset : unit -> unit

(** Indented span tree with durations in milliseconds. *)
val pp_profile : Format.formatter -> unit -> unit

(** Chrome trace-event array ("X" complete events, microsecond times). *)
val to_json : unit -> Wcet_diag.Json.t

(** Write {!to_json} to [path], one event per line. *)
val write_chrome : string -> unit
