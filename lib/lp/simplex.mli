(** Exact two-phase simplex over rationals (dense tableau, Bland's rule).

    Solves [maximize c.x subject to constraints, x >= 0]. Problem sizes in
    IPET are small (hundreds of variables after chain collapsing), so a
    dense exact tableau is both fast enough and free of floating-point
    soundness concerns — the WCET bound comes out of this solver, it must
    not be approximate. A pivot updates only the nonzero columns of the
    pivot row; [test/simplex_ref.ml] is the dense-pivot oracle it must
    match, outcome and pivot count alike. *)

type op = Le | Ge | Eq

type constr = {
  coeffs : (int * Wcet_util.Rat.t) list;  (** (variable, coefficient) *)
  op : op;
  rhs : Wcet_util.Rat.t;
}

type problem = {
  num_vars : int;
  maximize : (int * Wcet_util.Rat.t) list;
  constraints : constr list;
}

type outcome =
  | Optimal of Wcet_util.Rat.t * Wcet_util.Rat.t array  (** value, assignment *)
  | Unbounded
  | Infeasible

val solve : problem -> outcome
