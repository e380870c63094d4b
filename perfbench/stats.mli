(** Order statistics over per-op samples. *)

(** Median; the mean of the two middle samples when the count is even,
    [nan] when empty. *)
val median : float array -> float

(** [percentile a p] is the nearest-rank [p]-quantile ([0 < p <= 1]):
    the smallest sample with at least a share [p] of the samples at or
    below it; [nan] when empty. *)
val percentile : float array -> float -> float

(** Samples strictly greater than the given value (to show that a
    percentile has enough samples beyond it). *)
val count_above : float array -> float -> int

(** Geometric mean of positive values; [nan] for the empty list. *)
val geomean : float list -> float
