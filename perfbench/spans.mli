(** Per-span-name self and total times from {!Wcet_obs.Trace} events.

    A span's self time is its duration minus the durations of its direct
    children: the spans of the same domain, one level deeper, that start
    inside it. *)

type t

val create : unit -> t

(** Fold a batch of completed spans (for instance one op's, read with
    {!Wcet_obs.Trace.events} before a {!Wcet_obs.Trace.reset}). *)
val add : t -> Wcet_obs.Trace.event list -> unit

(** Summed self time of every span with that name, in ms (0 if none). *)
val self_ms : t -> string -> float

(** Summed duration of every span with that name, in ms (0 if none). *)
val total_ms : t -> string -> float

(** Names of the spans seen, sorted. *)
val names : t -> string list
