(** Process-wide resource counters for the benchmark.

    Allocation is read from [Gc.quick_stat], which folds in the counters
    of every domain that has run, including pool workers already joined.
    [Gc.minor_words ()] reads only the calling domain and would miss the
    work the analyzer fans out over {!Wcet_util.Parallel}. *)

type gc = {
  words : float;  (** words allocated: minor + major - promoted *)
  minor_collections : float;
  major_collections : float;
  promoted_words : float;
}

val gc : unit -> gc

(** [diff later earlier], field by field. *)
val diff : gc -> gc -> gc

(** Peak resident set size ([VmHWM]) of this process in MiB; [nan] where
    [/proc/self/status] is unreadable. *)
val peak_rss_mb : unit -> float

(** Monotonic seconds. *)
val now : unit -> float
