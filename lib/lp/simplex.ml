module Rat = Wcet_util.Rat

let m_pivots =
  Wcet_obs.Metrics.counter ~name:"simplex_pivots" ~help:"Simplex pivot operations performed" ()

type op = Le | Ge | Eq

type constr = { coeffs : (int * Rat.t) list; op : op; rhs : Rat.t }

type problem = { num_vars : int; maximize : (int * Rat.t) list; constraints : constr list }

type outcome = Optimal of Rat.t * Rat.t array | Unbounded | Infeasible

(* Tableau layout: row 0 is the objective (reduced costs, negated), rows
   1..m the constraints; column layout is
   [structural vars | slack/surplus | artificials | rhs]. *)
type tableau = {
  t : Rat.t array array;
  basis : int array;  (* basic variable of each constraint row *)
  cols : int;  (* number of variable columns (rhs excluded) *)
  nz : int array;  (* scratch: nonzero columns of the current pivot row *)
}

(* A flow-conservation tableau is mostly zeros, so a pivot touches only
   the nonzero columns of the pivot row: every other cell of an updated
   row would be rewritten to itself. *)
let pivot tab r c =
  Wcet_obs.Metrics.incr m_pivots 1;
  let m = Array.length tab.t in
  let prow = tab.t.(r) in
  let inv = Rat.div Rat.one prow.(c) in
  let scale = not (Rat.equal inv Rat.one) in
  let nz = tab.nz in
  let k = ref 0 in
  for j = 0 to tab.cols do
    let x = prow.(j) in
    if Rat.sign x <> 0 then begin
      if scale then prow.(j) <- Rat.mul x inv;
      nz.(!k) <- j;
      incr k
    end
  done;
  for i = 0 to m - 1 do
    if i <> r then begin
      let row = tab.t.(i) in
      let factor = row.(c) in
      if Rat.sign factor <> 0 then
        for q = 0 to !k - 1 do
          let j = nz.(q) in
          row.(j) <- Rat.sub row.(j) (Rat.mul factor prow.(j))
        done
    end
  done;
  tab.basis.(r - 1) <- c

(* Bland's rule: entering = smallest eligible column; leaving = smallest
   basis index among minimizing ratios. Guarantees termination. *)
let rec iterate tab ~allowed =
  let m = Array.length tab.t - 1 in
  let entering = ref (-1) in
  (try
     for j = 0 to tab.cols - 1 do
       if allowed j && Rat.sign tab.t.(0).(j) < 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let c = !entering in
    let best_ratio = ref Rat.zero and best_row = ref (-1) in
    for i = 1 to m do
      let a = tab.t.(i).(c) in
      if Rat.sign a > 0 then begin
        let ratio = Rat.div tab.t.(i).(tab.cols) a in
        if !best_row < 0 then begin
          best_ratio := ratio;
          best_row := i
        end
        else
          let cmp = Rat.compare ratio !best_ratio in
          if cmp < 0 || (cmp = 0 && tab.basis.(i - 1) < tab.basis.(!best_row - 1)) then begin
            best_ratio := ratio;
            best_row := i
          end
      end
    done;
    if !best_row < 0 then `Unbounded
    else begin
      pivot tab !best_row c;
      iterate tab ~allowed
    end
  end

(* Canonicalize a coefficient list: merge duplicate variables (generated
   constraints may mention an edge twice), drop zero coefficients, and
   reject out-of-range variables up front — feeding them further would
   silently write into slack columns. *)
let canon ~num_vars ~what coeffs =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (v, q) ->
      if v < 0 || v >= num_vars then
        invalid_arg
          (Printf.sprintf "Simplex.solve: %s references variable %d (problem has %d)" what v
             num_vars);
      match Hashtbl.find_opt tbl v with
      | None ->
        order := v :: !order;
        Hashtbl.replace tbl v q
      | Some q0 -> Hashtbl.replace tbl v (Rat.add q0 q))
    coeffs;
  List.filter (fun (_, q) -> Rat.sign q <> 0) (List.rev_map (fun v -> (v, Hashtbl.find tbl v)) !order)

exception Trivially_infeasible

let rec solve (p : problem) =
  match
    (* Resolve rows whose coefficients cancel away entirely — they are
       constant assertions, not tableau rows (an all-zero Ge/Eq row would
       otherwise burn an artificial that can never leave the basis). *)
    List.filter_map
      (fun c ->
        let coeffs = canon ~num_vars:p.num_vars ~what:"constraint" c.coeffs in
        if coeffs = [] then begin
          let sat =
            match c.op with
            | Le -> Rat.sign c.rhs >= 0
            | Ge -> Rat.sign c.rhs <= 0
            | Eq -> Rat.sign c.rhs = 0
          in
          if sat then None else raise Trivially_infeasible
        end
        else Some { c with coeffs })
      p.constraints
  with
  | exception Trivially_infeasible -> Infeasible
  | canonical -> solve_canonical { p with constraints = canonical }

and solve_canonical (p : problem) =
  let maximize = canon ~num_vars:p.num_vars ~what:"objective" p.maximize in
  let m = List.length p.constraints in
  (* Normalize all right-hand sides to be non-negative. *)
  let constraints =
    List.map
      (fun c ->
        if Rat.sign c.rhs < 0 then
          {
            coeffs = List.map (fun (v, q) -> (v, Rat.neg q)) c.coeffs;
            op = (match c.op with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = Rat.neg c.rhs;
          }
        else c)
      p.constraints
  in
  let n_slack = List.length (List.filter (fun c -> c.op <> Eq) constraints) in
  let n_art =
    List.length (List.filter (fun c -> match c.op with Le -> false | Ge | Eq -> true) constraints)
  in
  let cols = p.num_vars + n_slack + n_art in
  let t = Array.init (m + 1) (fun _ -> Array.make (cols + 1) Rat.zero) in
  let basis = Array.make m 0 in
  let tab = { t; basis; cols; nz = Array.make (cols + 1) 0 } in
  let slack_cursor = ref p.num_vars in
  let art_cursor = ref (p.num_vars + n_slack) in
  let art_cols = ref [] in
  List.iteri
    (fun idx c ->
      let row = t.(idx + 1) in
      List.iter
        (fun (v, q) ->
          assert (v >= 0 && v < p.num_vars);
          row.(v) <- Rat.add row.(v) q)
        c.coeffs;
      row.(cols) <- c.rhs;
      (match c.op with
      | Le ->
        let s = !slack_cursor in
        incr slack_cursor;
        row.(s) <- Rat.one;
        basis.(idx) <- s
      | Ge ->
        let s = !slack_cursor in
        incr slack_cursor;
        row.(s) <- Rat.minus_one;
        let a = !art_cursor in
        incr art_cursor;
        row.(a) <- Rat.one;
        art_cols := a :: !art_cols;
        basis.(idx) <- a
      | Eq ->
        let a = !art_cursor in
        incr art_cursor;
        row.(a) <- Rat.one;
        art_cols := a :: !art_cols;
        basis.(idx) <- a))
    constraints;
  let is_artificial j = j >= p.num_vars + n_slack in
  (* Phase 1: maximize -sum(artificials). Row 0 = sum of artificial-basic
     rows, negated appropriately: start with +1 on artificial columns, then
     zero the reduced costs of the basic artificials by subtracting their
     rows. *)
  if n_art > 0 then begin
    List.iter (fun a -> t.(0).(a) <- Rat.one) !art_cols;
    for i = 1 to m do
      if is_artificial basis.(i - 1) then
        for j = 0 to cols do
          if Rat.sign t.(i).(j) <> 0 then t.(0).(j) <- Rat.sub t.(0).(j) t.(i).(j)
        done
    done;
    match iterate tab ~allowed:(fun _ -> true) with
    | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
    | `Optimal -> ()
  end;
  if n_art > 0 && Rat.sign t.(0).(cols) <> 0 then Infeasible
  else begin
    (* Drive remaining basic artificials out where possible. *)
    for i = 1 to m do
      if is_artificial basis.(i - 1) then begin
        let found = ref (-1) in
        (try
           for j = 0 to p.num_vars + n_slack - 1 do
             if Rat.sign t.(i).(j) <> 0 then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then pivot tab i !found
      end
    done;
    (* Phase 2 objective. *)
    for j = 0 to cols do
      t.(0).(j) <- Rat.zero
    done;
    List.iter (fun (v, q) -> t.(0).(v) <- Rat.sub t.(0).(v) q) maximize;
    for i = 1 to m do
      let b = basis.(i - 1) in
      let factor = t.(0).(b) in
      if Rat.sign factor <> 0 then
        for j = 0 to cols do
          if Rat.sign t.(i).(j) <> 0 then
            t.(0).(j) <- Rat.sub t.(0).(j) (Rat.mul factor t.(i).(j))
        done
    done;
    match iterate tab ~allowed:(fun j -> not (is_artificial j)) with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let assignment = Array.make p.num_vars Rat.zero in
      for i = 1 to m do
        if basis.(i - 1) < p.num_vars then assignment.(basis.(i - 1)) <- t.(i).(cols)
      done;
      Optimal (t.(0).(cols), assignment)
  end
