(* Each region is backed by fixed-size pages, made on the first write into
   them: a program touches a few KiB of a 256 KiB ROM and 1 MiB RAM, and
   creating, copying and hashing an image should cost what it touches.
   [pages.(i)] is the page table of [regions.(i)] ([||] until the region is
   first written); an absent page is the empty byte string and reads as 0.
   Absence is tested by length, not by physical equality, so it survives
   marshaling. *)

type t = { map : Memory_map.t; regions : Region.t array; pages : Bytes.t array array }

exception Bus_error of int
exception Write_to_rom of int

let page_bits = 10
let page_size = 1 lsl page_bits

let create map =
  let regions = Array.of_list (Memory_map.regions map) in
  { map; regions; pages = Array.make (Array.length regions) [||] }

let memory_map t = t.map

(* Index of the region holding [addr], or -1: a plain loop, so the
   simulator's every fetch and load allocates nothing here. *)
let rec region_index regions addr i =
  if i >= Array.length regions then -1
  else if Region.contains regions.(i) addr then i
  else region_index regions addr (i + 1)

let locate t addr =
  if addr land 3 <> 0 then raise (Bus_error addr);
  let ri = region_index t.regions addr 0 in
  if ri < 0 then raise (Bus_error addr);
  ri

let read_word t addr =
  let ri = locate t addr in
  let off = addr - t.regions.(ri).Region.base in
  let table = t.pages.(ri) in
  if Array.length table = 0 then 0
  else
    let page = table.(off lsr page_bits) in
    if Bytes.length page = 0 then 0
    else Int32.to_int (Bytes.get_int32_le page (off land (page_size - 1))) land 0xFFFFFFFF

(* The page holding offset [off] of region [ri], made (zeroed) if absent;
   a region's last page is cut at the region's end. *)
let page_for_write t ri off =
  let r = t.regions.(ri) in
  let table =
    match t.pages.(ri) with
    | [||] ->
      let table = Array.make ((r.Region.size + page_size - 1) lsr page_bits) Bytes.empty in
      t.pages.(ri) <- table;
      table
    | table -> table
  in
  let pi = off lsr page_bits in
  let page = table.(pi) in
  if Bytes.length page > 0 then page
  else begin
    let page = Bytes.make (min page_size (r.Region.size - (pi lsl page_bits))) '\000' in
    table.(pi) <- page;
    page
  end

let write_raw t ri addr v =
  let off = addr - t.regions.(ri).Region.base in
  Bytes.set_int32_le (page_for_write t ri off) (off land (page_size - 1)) (Int32.of_int v)

let write_word t addr v =
  let ri = locate t addr in
  if not t.regions.(ri).Region.writable then raise (Write_to_rom addr);
  write_raw t ri addr v

let load_words t ~base words =
  Array.iteri (fun i w -> let addr = base + (4 * i) in write_raw t (locate t addr) addr w) words

let all_zero page =
  let rec go i = i >= Bytes.length page || (Bytes.get page i = '\000' && go (i + 1)) in
  go 0

let contents t =
  let dump = ref [] in
  Array.iteri
    (fun ri table ->
      Array.iteri
        (fun pi page ->
          if not (all_zero page) then
            dump :=
              (t.regions.(ri).Region.name, pi lsl page_bits, Bytes.to_string page) :: !dump)
        table)
    t.pages;
  List.sort compare !dump

let copy t =
  let copy_page page = if Bytes.length page = 0 then page else Bytes.copy page in
  { t with pages = Array.map (Array.map copy_page) t.pages }
