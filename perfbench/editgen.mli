(** Seeded MiniC programs for the [incremental_edit] workload.

    A program is a layered call DAG of 13 to 17 functions below [main]:
    a random call tree plus one leaf with a second caller. Half of the
    functions run one loop with a constant trip count, the others a
    straight-line step; each then calls its callees. Every loop bound is
    derived automatically and no access is imprecise, so nothing triggers
    the octagon escalation. A version fixes three constants per function
    (the trip count, an addend and a multiplier); an edit changes one of
    them and never adds or removes a loop. *)

type shape

(** A version's constants; treat as immutable. *)
type version

val shape : Wcet_util.Pcg.t -> shape
val initial : Wcet_util.Pcg.t -> shape -> version

(** [edit rng shape v] is [v] with one constant of one function changed to
    a different value. *)
val edit : Wcet_util.Pcg.t -> shape -> version -> version

val source : shape -> version -> string
