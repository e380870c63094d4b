(* Octagon abstract domain: conjunctions of constraints of the form
   [±x ±y <= c] over a fixed set of integer variables (registers plus
   tracked stack/global slots), represented as a difference-bound matrix
   in Mine's encoding.

   Each octagon variable [v] contributes two DBM vertices: [2v] standing
   for [+x_v] and [2v+1] for [-x_v]. Cell (i,j) is an upper bound on
   [V_j - V_i] (max_int = unconstrained), so

     x_u - x_v <= c   lives at  (2v, 2u)
     x_u + x_v <= c   lives at  (2v+1, 2u)
    -x_u - x_v <= c   lives at  (2v, 2u+1)
         x_v <= c     lives at  (2v+1, 2v)  as  2c
        -x_v <= c     lives at  (2v, 2v+1)  as  2c

   with the coherence invariant [(i,j) = (bar j, bar i)] where [bar] flips
   the low bit.

   Layout: coherence makes half the n x n matrix (n = 2*dim) redundant, so
   one [int array] stores Mine's half: cell (i,j) when [j <= i lor 1], at
   index [j + (i+1)*(i+1)/2], n(n+2)/2 cells in all. Any other cell is read
   at its mirror. The lattice operations are flat loops over the array,
   the transfers touch only stored cells, and no kernel allocates per
   cell. The closure loops skip rows and columns whose candidates are all
   infinite (see [close_after_add] and [strengthen]).

   Ownership: a [t] is immutable — the fixpoint stores it, joins it and
   compares it. Transfers run in place on a [buf]: [thaw] copies a [t]'s
   matrix once, the operations of {!Buf} mutate that copy, and [freeze]
   hands the array over to a new [t] without copying and retires the
   [buf] (any later mutation raises). The product transfer thaws once per
   basic block, so a block costs one matrix copy however many constraints
   its instructions add, and a state the fixpoint has stored is never
   written. The persistent operations below are [thaw -> op -> freeze]
   wrappers over the same in-place code. (Measured costs of this layout
   against the earlier ones are in DESIGN.md, section 5j.)

   Soundness under 32-bit wraparound: a variable participates in
   constraints only while its companion interval proves its concrete value
   lies in [0, 2^31) (the "safe" range, where unsigned machine order,
   signed order and mathematical order on the representatives coincide and
   the tracked arithmetic cannot wrap). The transfer functions in
   {!Analysis} forget a variable the moment that proof lapses, so every
   recorded constraint is a true statement about mathematical integers.

   Closure discipline: strong closure is a precision device, never a
   soundness requirement — every stored constraint is individually true,
   so reading an unclosed matrix only loses precision. We therefore keep
   matrices closed incrementally where cheap (constraint addition,
   assignment) and accept temporary unclosedness after widening (closing a
   widened iterate would break termination). *)

let inf = max_int

type t = {
  dim : int;  (* octagon variables; the matrix has 2*dim vertices *)
  m : int array option;  (* half-matrix cells; None = bottom *)
  thr : int array;  (* widening thresholds, sorted ascending *)
}

type buf = {
  bdim : int;
  cells : int array;  (* owned by this buf until [freeze] *)
  mutable bot : bool;
  mutable frozen : bool;
  bthr : int array;
  mutable scratch : int array;  (* closure snapshots and lists, 5n cells, made on first use *)
}

let bar i = i lxor 1

(* Int-specialised, so the kernels never call the polymorphic compare. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* Saturating addition of path weights. *)
let ( +! ) a b = if a = inf || b = inf then inf else a + b

(* Round down to an even value (unary cells encode 2c). *)
let floor_even c = if c = inf then inf else c - (c land 1)

let no_thresholds = [||]

(* ---- half-matrix layout ---------------------------------------------- *)

(* Cell (i,j) is stored when [j <= i lor 1]: row i holds the columns up to
   the end of its own vertex pair. [row i] is where that row starts. *)
let row i = (i + 1) * (i + 1) / 2
let cells_of_dim dim = 2 * dim * (dim + 1)

(* Any cell, through coherence: an unstored (i,j) is read at its mirror
   (bar j, bar i), which is stored. *)
let get m i j = if j <= i lor 1 then m.(row i + j) else m.(row (bar j) + bar i)

let top ?(thresholds = no_thresholds) dim =
  let m = Array.make (cells_of_dim dim) inf in
  for i = 0 to (2 * dim) - 1 do
    m.(row i + i) <- 0
  done;
  { dim; m = Some m; thr = thresholds }

let bottom ?(thresholds = no_thresholds) dim = { dim; m = None; thr = thresholds }
let is_bot t = Option.is_none t.m
let dim t = t.dim

(* ---- kernels on a half matrix over n vertices ------------------------ *)

(* A DBM is inconsistent when some cycle has negative weight; after the
   incremental updates below it suffices to look at the diagonal and the
   unary pairs (all stored cells). *)
let consistent m n =
  let ok = ref true in
  for i = 0 to n - 1 do
    let r = row i in
    if m.(r + i) < 0 then ok := false;
    if m.(r + bar i) +! m.(row (bar i) + i) < 0 then ok := false
  done;
  !ok

(* Unary cells encode 2c: floor to even, then strengthen every cell by
   combining the two unary half-bounds. Only vertices with a finite unary
   bound can tighten anything, so both loops run over the list of those,
   kept ascending in [s] from [fin] with their half-bounds beside it at
   [fin + n]. Cell (i, bar v) is tightened by u_i + u_v; it is stored when
   [v <= i lor 1], a prefix of the ascending list. *)
let strengthen m n s fin =
  let half = fin + n in
  let nf = ref 0 in
  for i = 0 to n - 1 do
    let k = row i + bar i in
    let u = floor_even m.(k) in
    m.(k) <- u;
    let u = u / 2 in
    if u < inf / 4 then begin
      s.(fin + !nf) <- i;
      s.(half + !nf) <- u;
      incr nf
    end
  done;
  let nf = !nf in
  for x = 0 to nf - 1 do
    let i = s.(fin + x) and ui = s.(half + x) in
    let r = row i and lim = i lor 1 in
    let y = ref 0 in
    while !y < nf && s.(fin + !y) <= lim do
      let k = r + bar s.(fin + !y) in
      let c = ui + s.(half + !y) in
      if c < m.(k) then m.(k) <- c;
      incr y
    done
  done

(* Tighten all paths through the new constraint [V_b - V_a <= c] (written
   at (a,b)) and its coherent mirror (bar b, bar a), then strengthen. Mine's
   incremental closure: a shortest path in the updated graph uses the new
   edge at most twice (once in each orientation; a third use would close a
   negative cycle), so five candidates per cell, all evaluated against the
   pre-insertion matrix, restore strong closure in O(n^2).

   Every candidate reads four vectors of the old matrix: column a, column
   bar b, row b and row bar a. By coherence (i,a) = (bar a, bar i) and
   (i, bar b) = (b, bar i), so the two rows are all there is to snapshot;
   [s] holds row b, then row bar a, then the ascending list of columns
   where either row is finite. A cell's candidates are all infinite unless
   its column is in that list and, by the same coherence, the bar of its
   row is too, so both loops run over the list only. Each candidate of a
   stored cell equals the same candidate of its mirror, which is why
   updating the stored half alone is exact. *)
let close_after_add m n s a b c =
  if c < get m a b then begin
    let a' = bar a and b' = bar b in
    let row_a' = n and cols = 2 * n in
    let nc = ref 0 in
    for k = 0 to n - 1 do
      let to_b = get m b k and to_a' = get m a' k in
      s.(k) <- to_b;
      s.(row_a' + k) <- to_a';
      if to_b < inf || to_a' < inf then begin
        s.(cols + !nc) <- k;
        incr nc
      end
    done;
    let nc = !nc in
    let w_bb' = s.(b') and w_a'a = s.(row_a' + a) in
    for x = 0 to nc - 1 do
      let i' = s.(cols + x) in
      let i = bar i' in
      let ia = s.(row_a' + i') and ib' = s.(i') in
      (* i -> a -> b *)
      let via_ab = ia +! c in
      (* i -> bar b -> bar a (the mirror orientation) *)
      let via_b'a' = ib' +! c in
      (* i -> a -> b ->* bar b -> bar a (edge used twice) *)
      let via_ab_a' = via_ab +! w_bb' +! c in
      (* i -> bar b -> bar a ->* a -> b *)
      let via_b'a'_b = via_b'a' +! w_a'a +! c in
      let r = row i and lim = i lor 1 in
      let y = ref 0 in
      while !y < nc && s.(cols + !y) <= lim do
        let j = s.(cols + !y) in
        let to_b = s.(j) and to_a' = s.(row_a' + j) in
        let best =
          imin
            (imin (via_ab +! to_b) (via_b'a' +! to_a'))
            (imin (via_ab_a' +! to_a') (via_b'a'_b +! to_b))
        in
        if best < m.(r + j) then m.(r + j) <- best;
        incr y
      done
    done;
    strengthen m n s (3 * n)
  end

(* Bounds of x_v as (lo option, hi option); None = unconstrained on that
   side. *)
let var_bounds_cells m v =
  let p = 2 * v and q = (2 * v) + 1 in
  let hi = m.(row q + p) and lo = m.(row p + q) in
  ( (if lo = inf then None else Some (-(floor_even lo / 2))),
    if hi = inf then None else Some (floor_even hi / 2) )

(* Bounds of x_u - x_v: (lo option, hi option). *)
let diff_bounds_cells m ~u ~v =
  let ub = get m (2 * v) (2 * u) and nlb = get m (2 * u) (2 * v) in
  ( (if nlb = inf then None else Some (-nlb)),
    if ub = inf then None else Some ub )

(* On bottom both bounds collapse to the empty (Some 0, Some (-1)). *)
let empty_bounds = (Some 0, Some (-1))

(* ---- thaw / freeze -------------------------------------------------- *)

let thaw t =
  {
    bdim = t.dim;
    cells = (match t.m with None -> [||] | Some m -> Array.copy m);
    bot = is_bot t;
    frozen = false;
    bthr = t.thr;
    scratch = [||];
  }

let live b = if b.frozen then invalid_arg "Octagon.Buf: buffer mutated after freeze"

let freeze b =
  live b;
  b.frozen <- true;
  { dim = b.bdim; m = (if b.bot then None else Some b.cells); thr = b.bthr }

(* ---- in-place transfers --------------------------------------------- *)

module Buf = struct
  let is_bot b = b.bot
  let size b = 2 * b.bdim

  let normalize b = if not (consistent b.cells (size b)) then b.bot <- true

  let scratch b =
    if Array.length b.scratch = 0 then b.scratch <- Array.make (5 * size b) 0;
    b.scratch

  (* Add the DBM edge (i,j) <= c with incremental closure; bottom passes
     through. *)
  let add_edge b i j c =
    live b;
    if not b.bot then begin
      close_after_add b.cells (size b) (scratch b) i j c;
      normalize b
    end

  (* x_u - x_v <= c *)
  let add_diff b ~u ~v c =
    if u = v then begin
      live b;
      if c < 0 then b.bot <- true
    end
    else add_edge b (2 * v) (2 * u) c

  (* x_v <= c, i.e. x_v + x_v <= 2c *)
  let add_ub b v c = add_edge b ((2 * v) + 1) (2 * v) (floor_even (2 * c))

  (* x_v >= c, i.e. -x_v - x_v <= -2c *)
  let add_lb b v c = add_edge b (2 * v) ((2 * v) + 1) (floor_even (-2 * c))

  (* Drop every constraint mentioning [v]. On a closed matrix the result is
     closed (removing a variable cannot invalidate closure elsewhere). The
     stored cells of vertices p and q are their two rows up to q and their
     two columns below q. *)
  let forget b v =
    live b;
    if not b.bot then begin
      let m = b.cells and n = size b in
      let p = 2 * v and q = (2 * v) + 1 in
      let rp = row p and rq = row q in
      for j = 0 to q do
        m.(rp + j) <- (if j = p then 0 else inf);
        m.(rq + j) <- (if j = q then 0 else inf)
      done;
      for i = q + 1 to n - 1 do
        let r = row i in
        m.(r + p) <- inf;
        m.(r + q) <- inf
      done
    end

  (* x_v := x_v + c: an exact shift of the two DBM vertices of [v]. The
     caller guarantees no machine wraparound. Preserves closure. *)
  let shift b v c =
    live b;
    if not b.bot then begin
      let m = b.cells and n = size b in
      let p = 2 * v and q = (2 * v) + 1 in
      let rp = row p and rq = row q in
      (* V_p grows by c: bounds on V_p - V_i grow (column p), on V_i - V_p
         shrink (row p); V_q = -x_v shrinks by c, the other way round. *)
      for j = 0 to p - 1 do
        m.(rp + j) <- m.(rp + j) +! -c;
        m.(rq + j) <- m.(rq + j) +! c
      done;
      for i = q + 1 to n - 1 do
        let r = row i in
        m.(r + p) <- m.(r + p) +! c;
        m.(r + q) <- m.(r + q) +! -c
      done;
      m.(rq + p) <- m.(rq + p) +! (2 * c);
      m.(rp + q) <- m.(rp + q) +! (-2 * c);
      normalize b
    end

  (* x_d := x_s + c  (d <> s handled by forget+add; d = s by shift). *)
  let assign_var_plus b ~dst ~src c =
    if dst = src then shift b dst c
    else begin
      forget b dst;
      add_diff b ~u:dst ~v:src c;
      add_diff b ~u:src ~v:dst (-c)
    end

  let assign_interval b v (lo, hi) =
    forget b v;
    add_ub b v hi;
    add_lb b v lo

  let var_bounds b v = if b.bot then empty_bounds else var_bounds_cells b.cells v
  let diff_bounds b ~u ~v = if b.bot then empty_bounds else diff_bounds_cells b.cells ~u ~v
end

(* ---- persistent wrappers -------------------------------------------- *)

let persist t op =
  let b = thaw t in
  op b;
  freeze b

let add_diff t ~u ~v c = persist t (fun b -> Buf.add_diff b ~u ~v c)
let add_ub t v c = persist t (fun b -> Buf.add_ub b v c)
let add_lb t v c = persist t (fun b -> Buf.add_lb b v c)
let forget t v = persist t (fun b -> Buf.forget b v)
let assign_var_plus t ~dst ~src c = persist t (fun b -> Buf.assign_var_plus b ~dst ~src c)
let assign_interval t v range = persist t (fun b -> Buf.assign_interval b v range)

(* ---- queries --------------------------------------------------------- *)

let var_bounds t v = match t.m with None -> empty_bounds | Some m -> var_bounds_cells m v

let diff_bounds t ~u ~v =
  match t.m with None -> empty_bounds | Some m -> diff_bounds_cells m ~u ~v

(* ---- lattice --------------------------------------------------------- *)

let leq a b =
  match (a.m, b.m) with
  | None, _ -> true
  | Some _, None -> false
  | Some ma, Some mb ->
    let len = Array.length ma in
    let k = ref 0 in
    while !k < len && ma.(!k) <= mb.(!k) do
      incr k
    done;
    !k = len

let equal a b =
  match (a.m, b.m) with
  | None, None -> true
  | Some ma, Some mb ->
    let len = Array.length ma in
    let k = ref 0 in
    if len <> Array.length mb then false
    else begin
      while !k < len && ma.(!k) = mb.(!k) do
        incr k
      done;
      !k = len
    end
  | _ -> false

(* Cell-wise max. The join of two strongly closed octagons is strongly
   closed; on partially closed inputs it is merely a sound upper bound. *)
let join a b =
  match (a.m, b.m) with
  | None, _ -> b
  | _, None -> a
  | Some ma, Some mb ->
    let m = Array.copy ma in
    for k = 0 to Array.length m - 1 do
      m.(k) <- imax m.(k) mb.(k)
    done;
    { a with m = Some m }

(* Cell-wise meet (no re-closure: precision-only). *)
let meet a b =
  match (a.m, b.m) with
  | None, _ -> a
  | _, None -> b
  | Some ma, Some mb ->
    let m = Array.copy ma in
    for k = 0 to Array.length m - 1 do
      m.(k) <- imin m.(k) mb.(k)
    done;
    { a with m = (if consistent m (2 * a.dim) then Some m else None) }

(* The smallest threshold covering [c], else infinity. *)
let jump thr c =
  if c = inf then inf
  else begin
    let k = ref 0 and n = Array.length thr in
    while !k < n && thr.(!k) < c do
      incr k
    done;
    if !k < n then thr.(!k) else inf
  end

(* Threshold widening: a cell that grew jumps to the smallest threshold
   that still covers it (infinity when none does); stable cells keep their
   old bound. Each cell ascends a finite chain, so widening sequences
   terminate. The result is deliberately not re-closed. *)
let widen a b =
  match (a.m, b.m) with
  | None, _ -> b
  | _, None -> a
  | Some ma, Some mb ->
    let m = Array.copy ma in
    for k = 0 to Array.length m - 1 do
      let y = mb.(k) in
      if y > m.(k) then m.(k) <- jump a.thr y
    done;
    { a with m = Some m }

let pp ppf t =
  match t.m with
  | None -> Format.fprintf ppf "bottom"
  | Some m ->
    let printed = ref 0 in
    Format.fprintf ppf "@[<v>";
    for v = 0 to t.dim - 1 do
      match var_bounds t v with
      | None, None -> ()
      | lo, hi ->
        let side = function Some c -> string_of_int c | None -> "?" in
        Format.fprintf ppf "x%d in [%s,%s]@," v (side lo) (side hi);
        incr printed
    done;
    for u = 0 to t.dim - 1 do
      for v = 0 to t.dim - 1 do
        if u <> v then begin
          let c = get m (2 * v) (2 * u) in
          if c < inf then begin
            Format.fprintf ppf "x%d - x%d <= %d@," u v c;
            incr printed
          end
        end
      done
    done;
    if !printed = 0 then Format.fprintf ppf "top";
    Format.fprintf ppf "@]"

(* Full strong closure, exposed for the property tests; the incremental
   operations above keep matrices closed in normal operation. Shortest
   paths in Mine's pairwise form: for each vertex pair (p, q) a cell may
   route through p, through q, or through both in either order, so one
   pass over the stored half per pair reaches the same shortest-path
   matrix as Floyd-Warshall over the full one (or a negative diagonal when
   a negative cycle exists). Then strengthening. *)
let close t =
  match t.m with
  | None -> t
  | Some m ->
    let m = Array.copy m and n = 2 * t.dim in
    for v = 0 to t.dim - 1 do
      let p = 2 * v and q = (2 * v) + 1 in
      let w_pq = get m p q and w_qp = get m q p in
      for i = 0 to n - 1 do
        (* best i -> p and i -> q, each possibly via the other *)
        let ip = get m i p and iq = get m i q in
        let to_p = imin ip (iq +! w_qp) and to_q = imin iq (ip +! w_pq) in
        if to_p < inf || to_q < inf then begin
          let r = row i in
          for j = 0 to i lor 1 do
            let via = imin (to_p +! get m p j) (to_q +! get m q j) in
            if via < m.(r + j) then m.(r + j) <- via
          done
        end
      done
    done;
    strengthen m n (Array.make (2 * n) 0) 0;
    { t with m = (if consistent m n then Some m else None) }
