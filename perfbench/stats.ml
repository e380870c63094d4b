(* Order statistics over per-op samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least a share [p] of the
   samples at or below it. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let count_above a x = Array.fold_left (fun k v -> if v > x then k + 1 else k) 0 a

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float (List.length xs))
