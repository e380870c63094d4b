type t = { num : int; den : int }

exception Overflow

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Overflow-checked native negation, multiplication (detect wrap by
   dividing back), addition and subtraction (detect wrap by sign). Native
   ints are 63-bit, plenty for IPET coefficients, but we refuse to return
   silently wrong values. *)
let neg_exact a = if a = min_int then raise Overflow else -a

let mul_exact a b =
  if a = 0 || b = 0 then 0
  else if b = -1 then neg_exact a
  else
    let r = a * b in
    if r / b <> a then raise Overflow else r

let add_exact a b =
  let r = a + b in
  if (a >= 0 && b >= 0 && r < 0) || (a < 0 && b < 0 && r >= 0) then raise Overflow else r

let sub_exact a b =
  let r = a - b in
  if (a >= 0 && b < 0 && r < 0) || (a < 0 && b >= 0 && r >= 0) then raise Overflow else r

let make num den =
  if den = 0 then raise Division_by_zero;
  if num = 0 then { num = 0; den = 1 }
  else
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd (abs num) den in
    { num = num / g; den = den / g }

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let minus_one = { num = -1; den = 1 }
let of_int n = { num = n; den = 1 }

(* Integers (den = 1) are most cells of an IPET tableau, so add, sub, mul
   and div take an integer fast path: no gcd, no temporaries, and an
   operand comes back unchanged when the other is 0 (or 1 for mul and div).
   Results equal the general path's, and Overflow is raised whenever the
   exact result does not fit. *)
let add_general a b =
  let g = gcd a.den b.den in
  let da = a.den / g and db = b.den / g in
  make (add_exact (mul_exact a.num db) (mul_exact b.num da)) (mul_exact a.den db)

let add a b =
  if a.den = 1 && b.den = 1 then
    if a.num = 0 then b else if b.num = 0 then a else { num = add_exact a.num b.num; den = 1 }
  else add_general a b

let neg a = { num = neg_exact a.num; den = a.den }

let sub a b =
  if a.den = 1 && b.den = 1 then
    if b.num = 0 then a else { num = sub_exact a.num b.num; den = 1 }
  else add_general a (neg b)

let mul a b =
  if a.den = 1 && b.den = 1 then
    if a.num = 0 || b.num = 0 then zero
    else if a.num = 1 then b
    else if b.num = 1 then a
    else { num = mul_exact a.num b.num; den = 1 }
  else
    (* Cross-reduce before multiplying to keep intermediates small. *)
    let g1 = gcd (abs a.num) b.den and g2 = gcd (abs b.num) a.den in
    let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
    make (mul_exact (a.num / g1) (b.num / g2)) (mul_exact (a.den / g2) (b.den / g1))

let div a b =
  if b.num = 0 then raise Division_by_zero;
  if b.den = 1 && b.num = 1 then a else mul a (make b.den b.num)

let abs a = { a with num = abs a.num }
let sign a = compare a.num 0

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  if a.den = 1 && b.den = 1 then Int.compare a.num b.num
  else compare (mul_exact a.num b.den) (mul_exact b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_integer a = a.den = 1

let floor a =
  if a.num >= 0 then a.num / a.den
  else
    let q = a.num / a.den in
    if a.num mod a.den = 0 then q else q - 1

let ceil a = -floor (neg a)
let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
