(** The benchmark's correctness gate: every op's output is checked here,
    and any [Error] counts the op as failed (the run then exits non-zero).

    Outcomes are reduced to what must repeat exactly: the verdict and the
    bound of an analysis, or the first error code of a fatal
    [Analysis_failed]. *)

type outcome =
  | Bound of { complete : bool; wcet : int }
  | Rejected of string  (** [Analysis_failed]; its first error code *)
  | Crashed of string  (** any other exception, printed *)

val pp_outcome : Format.formatter -> outcome -> unit

(** [corpus ~expected ~sim_max got] for one [corpus_auto] op: [expected]
    is the scenario's first outcome (a [Rejected] one is an expected
    failure), [sim_max] the simulator maximum over the scenario's declared
    inputs. Fails on a crash, on any difference from [expected], and on a
    complete bound below [sim_max]. *)
val corpus : expected:outcome -> sim_max:int option -> outcome -> (unit, string) result

(** [revisit ~first got] for an [incremental_edit] op that returns to an
    earlier version: the outcome must equal that version's first one. *)
val revisit : first:outcome -> outcome -> (unit, string) result

(** [version ~cold ~sim_cycles got] for one version of an edit session,
    checked after the timed loop: [got] (from the cached session) must
    equal [cold] (a cache-off re-analysis) and, when complete, bound
    [sim_cycles]. *)
val version : cold:outcome -> sim_cycles:int -> outcome -> (unit, string) result

(** [histogram ~reference got] for one [table1_histogram] call: the
    result must equal the 1-domain reference exactly. *)
val histogram : reference:'a -> 'a -> (unit, string) result
