(* Reference octagon over the full matrix: every cell of the 2·dim square
   DBM, row-major, cell (i,j) at index [i*n + j], each kernel writing both
   coherent mirrors and looping over every row and column. It is the
   straightforward form of the library's {!Wcet_value.Octagon} (which
   stores only Mine's half matrix and skips infinite rows and columns) and
   serves as its test oracle: the same operations must give the same
   bounds. The constraint encoding, ownership rule and closure discipline
   are documented in lib/value/octagon.ml. *)

let inf = max_int

type t = {
  dim : int;  (* octagon variables; matrix is 2*dim square *)
  m : int array option;  (* row-major cells; None = bottom *)
  thr : int array;  (* widening thresholds, sorted ascending *)
}

type buf = {
  bdim : int;
  cells : int array;  (* owned by this buf until [freeze] *)
  mutable bot : bool;
  mutable frozen : bool;
  bthr : int array;
  mutable scratch : int array;  (* closure snapshots, 4n cells, made on first use *)
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

let top ?(thresholds = no_thresholds) dim =
  let n = 2 * dim in
  let m = Array.make (n * n) inf in
  for i = 0 to n - 1 do
    m.((i * n) + i) <- 0
  done;
  { dim; m = Some m; thr = thresholds }

let bottom ?(thresholds = no_thresholds) dim = { dim; m = None; thr = thresholds }
let is_bot t = Option.is_none t.m
let dim t = t.dim

(* ---- kernels on a flat n x n matrix --------------------------------- *)

(* A DBM is inconsistent when some cycle has negative weight; after the
   incremental updates below it suffices to look at the diagonal and the
   unary pairs. *)
let consistent m n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if m.((i * n) + i) < 0 then ok := false;
    if m.((i * n) + bar i) +! m.((bar i * n) + i) < 0 then ok := false
  done;
  !ok

(* Unary cells encode 2c: floor to even, then strengthen every cell by
   combining the two unary half-bounds. *)
let strengthen m n =
  for i = 0 to n - 1 do
    let k = (i * n) + bar i in
    m.(k) <- floor_even m.(k)
  done;
  for i = 0 to n - 1 do
    let ui = floor_even m.((i * n) + bar i) / 2 in
    if ui < inf / 4 then begin
      let row = i * n in
      for j = 0 to n - 1 do
        let uj = floor_even m.((bar j * n) + j) / 2 in
        if uj < inf / 4 && ui + uj < m.(row + j) then m.(row + j) <- ui + uj
      done
    end
  done

(* Tighten all paths through the new constraint [V_b - V_a <= c] (written
   at (a,b)) and its coherent mirror (bar b, bar a), then strengthen. Mine's
   incremental closure: a shortest path in the updated graph uses the new
   edge at most twice (once in each orientation; a third use would close a
   negative cycle), so five candidates per cell, all evaluated against the
   pre-insertion matrix, restore strong closure in O(n^2). The rows and
   columns the candidates read are snapshot into [s] first, so every
   candidate sees the old (closed) matrix regardless of update order; the
   per-row path prefixes are hoisted out of the inner loop, which then
   allocates nothing. *)
let close_after_add m n s a b c =
  if c < m.((a * n) + b) then begin
    let a' = bar a and b' = bar b in
    (* s = [col a | col bar b | row b | row bar a] *)
    let col_b' = n and row_b = 2 * n and row_a' = 3 * n in
    for k = 0 to n - 1 do
      s.(k) <- m.((k * n) + a);
      s.(col_b' + k) <- m.((k * n) + b');
      s.(row_b + k) <- m.((b * n) + k);
      s.(row_a' + k) <- m.((a' * n) + k)
    done;
    let w_bb' = s.(row_b + b') and w_a'a = s.(row_a' + a) in
    for i = 0 to n - 1 do
      let ia = s.(i) and ib' = s.(col_b' + i) in
      if ia < inf || ib' < inf then begin
        (* i -> a -> b *)
        let via_ab = ia +! c in
        (* i -> bar b -> bar a (the mirror orientation) *)
        let via_b'a' = ib' +! c in
        (* i -> a -> b ->* bar b -> bar a (edge used twice) *)
        let via_ab_a' = via_ab +! w_bb' +! c in
        (* i -> bar b -> bar a ->* a -> b *)
        let via_b'a'_b = via_b'a' +! w_a'a +! c in
        let row = i * n in
        for j = 0 to n - 1 do
          let to_b = s.(row_b + j) and to_a' = s.(row_a' + j) in
          let best =
            imin
              (imin (via_ab +! to_b) (via_b'a' +! to_a'))
              (imin (via_ab_a' +! to_a') (via_b'a'_b +! to_b))
          in
          if best < m.(row + j) then m.(row + j) <- best
        done
      end
    done;
    strengthen m n
  end

(* Bounds of x_v as (lo option, hi option); None = unconstrained on that
   side. *)
let var_bounds_cells m n v =
  let p = 2 * v and q = (2 * v) + 1 in
  let hi = m.((q * n) + p) and lo = m.((p * n) + q) in
  ( (if lo = inf then None else Some (-(floor_even lo / 2))),
    if hi = inf then None else Some (floor_even hi / 2) )

(* Bounds of x_u - x_v: (lo option, hi option). *)
let diff_bounds_cells m n ~u ~v =
  let ub = m.((2 * v * n) + (2 * u)) and nlb = m.((2 * u * n) + (2 * v)) in
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
    if Array.length b.scratch = 0 then b.scratch <- Array.make (4 * size b) 0;
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
     closed (removing a variable cannot invalidate closure elsewhere). *)
  let forget b v =
    live b;
    if not b.bot then begin
      let m = b.cells and n = size b in
      let p = 2 * v and q = (2 * v) + 1 in
      for i = 0 to n - 1 do
        m.((i * n) + p) <- (if i = p then 0 else inf);
        m.((i * n) + q) <- (if i = q then 0 else inf);
        m.((p * n) + i) <- (if i = p then 0 else inf);
        m.((q * n) + i) <- (if i = q then 0 else inf)
      done
    end

  (* x_v := x_v + c: an exact shift of the two DBM vertices of [v]. The
     caller guarantees no machine wraparound. Preserves closure. *)
  let shift b v c =
    live b;
    if not b.bot then begin
      let m = b.cells and n = size b in
      let p = 2 * v and q = (2 * v) + 1 in
      for i = 0 to n - 1 do
        if i <> p && i <> q then begin
          (* V_p grows by c: bounds on V_p - V_i grow, on V_i - V_p shrink. *)
          m.((i * n) + p) <- m.((i * n) + p) +! c;
          m.((p * n) + i) <- m.((p * n) + i) +! -c;
          (* V_q = -x_v shrinks by c. *)
          m.((i * n) + q) <- m.((i * n) + q) +! -c;
          m.((q * n) + i) <- m.((q * n) + i) +! c
        end
      done;
      m.((q * n) + p) <- m.((q * n) + p) +! (2 * c);
      m.((p * n) + q) <- m.((p * n) + q) +! (-2 * c);
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

  let var_bounds b v = if b.bot then empty_bounds else var_bounds_cells b.cells (size b) v

  let diff_bounds b ~u ~v =
    if b.bot then empty_bounds else diff_bounds_cells b.cells (size b) ~u ~v
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

let var_bounds t v =
  match t.m with None -> empty_bounds | Some m -> var_bounds_cells m (2 * t.dim) v

let diff_bounds t ~u ~v =
  match t.m with None -> empty_bounds | Some m -> diff_bounds_cells m (2 * t.dim) ~u ~v

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

(* Full strong closure (Floyd-Warshall + strengthening), exposed for the
   property tests; the incremental operations above keep matrices closed
   in normal operation. *)
let close t =
  match t.m with
  | None -> t
  | Some m ->
    let m = Array.copy m and n = 2 * t.dim in
    for k = 0 to n - 1 do
      let row_k = k * n in
      for i = 0 to n - 1 do
        let ik = m.((i * n) + k) in
        if ik < inf then begin
          let row = i * n in
          for j = 0 to n - 1 do
            let via = ik +! m.(row_k + j) in
            if via < m.(row + j) then m.(row + j) <- via
          done
        end
      done
    done;
    strengthen m n;
    { t with m = (if consistent m n then Some m else None) }
