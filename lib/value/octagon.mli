(** Octagon abstract domain: difference-bound matrices over [±x ±y <= c]
    constraints on a fixed set of integer variables (Mine's encoding), used
    by the escalation pass of {!Analysis} to recover relations the interval
    domain loses at joins and widenings.

    Soundness under 32-bit wraparound is the caller's contract: a variable
    may only participate in constraints while its companion interval proves
    the concrete value lies in [0, 2^31) — the range where unsigned machine
    order and mathematical order coincide — and must be {!forget}-ed the
    moment that proof lapses. Strong closure is a precision device only:
    every stored constraint is individually true, so reading a partially
    closed matrix merely loses precision, never soundness.

    The matrix over [2·dim] vertices is coherent ([(i,j) = (bar j, bar i)]),
    so one [int array] stores only Mine's half: cell [(i,j)] when
    [j <= i lor 1], at index [j + (i+1)*(i+1)/2], [2·dim·(dim+1)] cells in
    all. *)

type t

(** [top ?thresholds dim] is the unconstrained octagon over [dim]
    variables. [thresholds] (sorted ascending) are the widening landing
    points shared by every derived state. *)
val top : ?thresholds:int array -> int -> t

val bottom : ?thresholds:int array -> int -> t
val is_bot : t -> bool
val dim : t -> int

(** {2 In-place transfers}

    A [t] is immutable: states the fixpoint stores are never written. A
    [buf] is a private mutable copy for one sequence of transfers (the
    analysis thaws once per basic block): [thaw] copies the matrix once,
    the {!Buf} operations update it in place, and [freeze] hands the
    matrix to a new [t] without copying. After [freeze] the [buf] is
    retired; mutating it raises [Invalid_argument]. *)

type buf

val thaw : t -> buf
val freeze : buf -> t

(** All operations are sound tightenings or assignments on the variables
    [0 .. dim-1]; bottom passes through. *)
module Buf : sig
  val is_bot : buf -> bool

  (** [add_diff b ~u ~v c] adds [x_u - x_v <= c] with incremental
      closure (allocation-free after the first call on [b]). *)
  val add_diff : buf -> u:int -> v:int -> int -> unit

  val add_ub : buf -> int -> int -> unit  (** [add_ub b v c]: [x_v <= c] *)

  val add_lb : buf -> int -> int -> unit  (** [add_lb b v c]: [x_v >= c] *)

  (** [forget b v] drops every constraint mentioning [v]. *)
  val forget : buf -> int -> unit

  (** [assign_var_plus b ~dst ~src c] is [x_dst := x_src + c] ([dst = src]
      allowed: an exact shift). The caller guarantees no wraparound. *)
  val assign_var_plus : buf -> dst:int -> src:int -> int -> unit

  (** [assign_interval b v (lo, hi)] is [x_v := \[lo, hi\]] (forget +
      unary bounds). *)
  val assign_interval : buf -> int -> int * int -> unit

  val var_bounds : buf -> int -> int option * int option
  val diff_bounds : buf -> u:int -> v:int -> int option * int option
end

(** {2 Persistent transfers} — [thaw], the {!Buf} operation of the same
    name, [freeze]. *)

val add_diff : t -> u:int -> v:int -> int -> t
val add_ub : t -> int -> int -> t
val add_lb : t -> int -> int -> t
val forget : t -> int -> t
val assign_var_plus : t -> dst:int -> src:int -> int -> t
val assign_interval : t -> int -> int * int -> t

(** {2 Queries} *)

(** [var_bounds t v] is [(lo, hi)] with [None] = unconstrained on that
    side; on bottom, the empty pair [(Some 0, Some (-1))]. *)
val var_bounds : t -> int -> int option * int option

(** [diff_bounds t ~u ~v] bounds [x_u - x_v] the same way. *)
val diff_bounds : t -> u:int -> v:int -> int option * int option

(** {2 Lattice} *)

val leq : t -> t -> bool
val equal : t -> t -> bool

(** Cell-wise max; on strongly closed arguments this is the best octagon
    abstraction of the union, and the result is again strongly closed. *)
val join : t -> t -> t

val meet : t -> t -> t

(** Threshold widening: a growing cell jumps to the smallest threshold
    covering it, else to infinity; stable cells keep their old bound. The
    result is deliberately not re-closed (termination). *)
val widen : t -> t -> t

(** Full strong closure (Floyd–Warshall + integer strengthening). Exposed
    for the idempotence property tests; normal operation relies on the
    incremental closure inside the constraint operations. *)
val close : t -> t

val pp : Format.formatter -> t -> unit
