module Pcg = Wcet_util.Pcg

(* callees.(i) lists the functions f<i> calls; every index is larger than i,
   so the call graph is a DAG whose layers follow the index order. *)
type shape = { callees : int list array }

(* Per function: trip count, addend, multiplier. *)
type version = int array

let consts = 3
let trips = (2, 6)
let small = (1, 9)

let range rng (lo, hi) = lo + Pcg.next_int rng (hi - lo + 1)

(* A random tree under f0 (each f<i> is called by one of the three
   functions before it) plus one second caller for one leaf. The analyzer
   expands every call context, so more sharing than that multiplies the
   analyzed graph. *)
let shape rng =
  let n = range rng (13, 17) in
  let callees = Array.make n [] in
  for i = 1 to n - 1 do
    let p = range rng (max 0 (i - 3), i - 1) in
    callees.(p) <- i :: callees.(p)
  done;
  let pick l = List.nth l (Pcg.next_int rng (List.length l)) in
  let leaf = pick (List.filter (fun j -> j >= 2 && callees.(j) = []) (List.init n Fun.id)) in
  let caller = pick (List.filter (fun i -> not (List.mem leaf callees.(i))) (List.init leaf Fun.id)) in
  callees.(caller) <- leaf :: callees.(caller);
  { callees = Array.map (List.sort compare) callees }

let functions s = Array.length s.callees

let initial rng s =
  Array.init (functions s * consts) (fun j ->
      if j mod consts <> 0 then range rng small
      else if Pcg.next_bool rng then range rng trips
      else 0)

let edit rng s v =
  let v' = Array.copy v in
  let j = Pcg.next_int rng (functions s * consts) in
  let j = if v.(j) = 0 then j + 1 + Pcg.next_int rng (consts - 1) else j in
  let lo, hi = if j mod consts = 0 then trips else small in
  v'.(j) <- lo + ((v.(j) - lo + 1 + Pcg.next_int rng (hi - lo)) mod (hi - lo + 1));
  v'

(* A trip count of 0 stands for a function without a loop; [initial]
   gives half of the functions one, and edits keep that choice. *)
let source s v =
  let b = Buffer.create 2048 in
  let n = functions s in
  for i = n - 1 downto 0 do
    let k = v.(i * consts) and add = v.((i * consts) + 1) and mul = v.((i * consts) + 2) in
    Printf.bprintf b "int f%d(int x) {\n  int i;\n  int s;\n  s = x + %d;\n" i add;
    if k = 0 then Printf.bprintf b "  s = s * %d;\n" mul
    else
      Printf.bprintf b
        "  for (i = 0; i < %d; i = i + 1) {\n    s = s + i * %d;\n  }\n" k mul;
    List.iter (fun c -> Printf.bprintf b "  s = s + f%d(s);\n" c) s.callees.(i);
    Buffer.add_string b "  return s;\n}\n\n"
  done;
  Buffer.add_string b "int main() {\n  return f0(1);\n}\n";
  Buffer.contents b
