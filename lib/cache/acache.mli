(** Abstract LRU cache states (Ferdinand-style must/may analysis).

    The must cache maps lines to an upper bound on their LRU age: a line
    present in the must cache is guaranteed in the concrete cache, so an
    access to it is an always-hit. The may cache maps lines to a lower
    bound on age: a line absent from the may cache is guaranteed absent
    (always-miss). Property tests check both guarantees against the
    concrete {!Pred32_hw.Lru_cache} on random traces.

    An access only ages lines of its own set, so states are kept per cache
    set: [access] rebuilds the accessed set and shares every other one with
    its input, and [join], [leq] and [equal] skip the sets two states
    share. *)

type t

val empty : Pred32_hw.Cache_config.t -> t

(** [access t line] returns the state after an access to [line]. When
    [line] is already the youngest of its set in both the must and the may
    cache, and no other line of the set may be as young, nothing ages and
    [t] itself is returned. *)
val access : t -> int -> t

(** [access_unknown t] models an access to an unknown line: every set
    may age, and may-contents become unknown (classifications after it can
    no longer prove always-miss, and all must-ages grow). *)
val access_unknown : t -> t

val must_contains : t -> int -> bool

(** [may_excludes t line] — the line is provably not cached. *)
val may_excludes : t -> int -> bool

val join : t -> t -> t
val leq : t -> t -> bool
val equal : t -> t -> bool

(** [pp] prints the must and may ages in global line order. *)
val pp : Format.formatter -> t -> unit
