module Cache_config = Pred32_hw.Cache_config
module Line_map = Map.Make (Int)

(* One cache set. must: line -> maximal possible age (present in every
   concrete state with at most this age). may: line -> minimal possible age;
   absent lines are provably uncached — unless [may_universal] is set (after
   an unknown access nothing can be proven absent). An access only ages
   lines of its own set, so the state is kept per set: an access rebuilds
   one set and shares every other with its input. *)
type set = { must : int Line_map.t; may : int Line_map.t }

(* [sets] is indexed by [Cache_config.set_of_line] and never mutated once
   the state is built; operations on two states skip the sets they share. *)
type t = { cfg : Cache_config.t; sets : set array; may_universal : bool }

let empty_set = { must = Line_map.empty; may = Line_map.empty }

let empty cfg =
  { cfg; sets = Array.make cfg.Cache_config.sets empty_set; may_universal = false }

let set_of t line = t.sets.(Cache_config.set_of_line t.cfg line)

(* [age_in m line ~absent] without allocating an option. *)
let age_in m line ~absent = match Line_map.find line m with a -> a | exception Not_found -> absent
let count_youngest _ age n = if age = 0 then n + 1 else n

let access t line =
  let assoc = t.cfg.Cache_config.assoc in
  let si = Cache_config.set_of_line t.cfg line in
  let s = t.sets.(si) in
  let old_must_age = age_in s.must line ~absent:assoc in
  let old_may_age = age_in s.may line ~absent:assoc in
  if old_must_age = 0 && old_may_age = 0 && Line_map.fold count_youngest s.may 0 = 1 then
    (* the line is the youngest of its set and no other may be: nothing ages *)
    t
  else begin
    let must =
      Line_map.filter_map
        (fun m age ->
          if m = line then Some 0
          else if age < old_must_age then if age + 1 >= assoc then None else Some (age + 1)
          else Some age)
        s.must
    in
    let may =
      Line_map.filter_map
        (fun m age ->
          if m = line then Some 0
          else if age <= old_may_age then if age + 1 >= assoc then None else Some (age + 1)
          else Some age)
        s.may
    in
    let sets = Array.copy t.sets in
    sets.(si) <- { must = Line_map.add line 0 must; may = Line_map.add line 0 may };
    { t with sets }
  end

let access_unknown t =
  (* One unknown line is touched: in every set, any line may age by one;
     nothing new can be proven absent afterwards. *)
  let assoc = t.cfg.Cache_config.assoc in
  let age_set s =
    if Line_map.is_empty s.must then s
    else
      let age_one _ age = if age + 1 >= assoc then None else Some (age + 1) in
      { s with must = Line_map.filter_map age_one s.must }
  in
  { t with sets = Array.map age_set t.sets; may_universal = true }

let must_contains t line = Line_map.mem line (set_of t line).must
let may_excludes t line = (not t.may_universal) && not (Line_map.mem line (set_of t line).may)

let join_set a b =
  if a == b then a
  else
    let must =
      if a.must == b.must then a.must
      else
        Line_map.merge
          (fun _ x y ->
            match (x, y) with
            | Some x, Some y -> Some (max x y)
            | Some _, None | None, Some _ | None, None -> None)
          a.must b.must
    in
    let may =
      if a.may == b.may then a.may else Line_map.union (fun _ x y -> Some (min x y)) a.may b.may
    in
    { must; may }

let join a b =
  let sets = if a.sets == b.sets then a.sets else Array.map2 join_set a.sets b.sets in
  { cfg = a.cfg; sets; may_universal = a.may_universal || b.may_universal }

(* a is at least as precise as b: every must age of b bounds a's from
   above, and (unless b's may is universal) every may age of a bounds b's
   from above. *)
let leq a b =
  let check_may = not b.may_universal in
  let must_leq sa sb =
    sa.must == sb.must
    || Line_map.for_all
         (fun line age ->
           match Line_map.find_opt line sa.must with Some a -> a <= age | None -> false)
         sb.must
  in
  let may_leq sa sb =
    (not check_may) || sa.may == sb.may
    || Line_map.for_all
         (fun line age ->
           match Line_map.find_opt line sb.may with Some b -> b <= age | None -> false)
         sa.may
  in
  ((not check_may) || not a.may_universal)
  && (a.sets == b.sets
     || Array.for_all2 (fun sa sb -> sa == sb || (must_leq sa sb && may_leq sa sb)) a.sets b.sets)

let equal a b =
  let equal_set sa sb =
    sa == sb || (Line_map.equal Int.equal sa.must sb.must && Line_map.equal Int.equal sa.may sb.may)
  in
  a.may_universal = b.may_universal && (a.sets == b.sets || Array.for_all2 equal_set a.sets b.sets)

let pp ppf t =
  (* sets interleave lines, so merge them back into global line order *)
  let all field =
    Array.fold_left (fun acc s -> Line_map.union (fun _ x _ -> Some x) acc (field s)) Line_map.empty
      t.sets
  in
  let print = Line_map.iter (fun l a -> Format.fprintf ppf " %d@%d" l a) in
  Format.fprintf ppf "must:{";
  print (all (fun s -> s.must));
  Format.fprintf ppf " } may:{";
  if t.may_universal then Format.fprintf ppf " *" else print (all (fun s -> s.may));
  Format.fprintf ppf " }"
