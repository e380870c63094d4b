(* Tests of the abstract-state layer (tracked memory, havoc, linkage
   protection, origins) and the concrete memory-map/image substrate. *)

module State = Wcet_value.State
module Aval = Wcet_value.Aval
module Reg = Pred32_isa.Reg
module Region = Pred32_memory.Region
module Memory_map = Pred32_memory.Memory_map
module Image = Pred32_memory.Image

(* a tiny program so State.load can consult ROM *)
let program = Minic.Compile.compile "rom int table[2] = {11, 22}; int main() { return table[0]; }"

let no_linkage _ = false

let test_reg_ops () =
  let st = State.entry_state ~assumes:[] in
  let st = State.set_reg st (Reg.of_int 3) (Aval.const 7) in
  Alcotest.(check bool) "read back" true
    (Aval.equal (State.get_reg st (Reg.of_int 3)) (Aval.const 7));
  (* r0 is hardwired zero *)
  let st = State.set_reg st Reg.zero (Aval.const 9) in
  Alcotest.(check bool) "r0 stays zero" true
    (Aval.equal (State.get_reg st Reg.zero) (Aval.const 0))

let test_memory_tracking () =
  let st = State.entry_state ~assumes:[] in
  let addr = 0x10000100 in
  Alcotest.(check bool) "untracked is top" true
    (Aval.equal (State.load ~program st addr) Aval.top);
  let st = State.store ~linkage:no_linkage st addr (Aval.const 5) in
  Alcotest.(check bool) "tracked after store" true
    (Aval.equal (State.load ~program st addr) (Aval.const 5))

let test_rom_reads_are_constants () =
  let st = State.entry_state ~assumes:[] in
  let table = Pred32_asm.Program.symbol program "table" in
  Alcotest.(check bool) "rom word 0" true
    (Aval.equal (State.load ~program st table) (Aval.const 11));
  Alcotest.(check bool) "rom word 1" true
    (Aval.equal (State.load ~program st (table + 4)) (Aval.const 22))

let test_weak_update () =
  let st = State.entry_state ~assumes:[] in
  let a1 = 0x10000100 and a2 = 0x10000104 in
  let st = State.store ~linkage:no_linkage st a1 (Aval.const 1) in
  let st = State.store ~linkage:no_linkage st a2 (Aval.const 2) in
  (* a write to one of {a1, a2} weakens both *)
  let st = State.store_weak ~linkage:no_linkage st [ a1; a2 ] (Aval.const 9) in
  let v1 = State.load ~program st a1 in
  Alcotest.(check bool) "a1 joined" true (Aval.leq (Aval.const 1) v1 && Aval.leq (Aval.const 9) v1);
  let v2 = State.load ~program st a2 in
  Alcotest.(check bool) "a2 joined" true (Aval.leq (Aval.const 2) v2 && Aval.leq (Aval.const 9) v2)

let test_havoc_and_linkage () =
  let st = State.entry_state ~assumes:[] in
  let data = 0x10000100 and saved_lr = 0x100FFFF8 in
  let st = State.store ~linkage:no_linkage st data (Aval.const 5) in
  let st = State.store ~linkage:no_linkage st saved_lr (Aval.const 0x44) in
  let linkage a = a = saved_lr in
  let st = State.havoc ~linkage st in
  Alcotest.(check bool) "data forgotten" true (Aval.equal (State.load ~program st data) Aval.top);
  Alcotest.(check bool) "linkage survives" true
    (Aval.equal (State.load ~program st saved_lr) (Aval.const 0x44))

let test_join_drops_one_sided () =
  let base = State.entry_state ~assumes:[] in
  let a = State.store ~linkage:no_linkage base 0x10000100 (Aval.const 1) in
  let b = State.store ~linkage:no_linkage base 0x10000104 (Aval.const 2) in
  let j = State.join a b in
  (* entries present on only one side are unknown on the other -> dropped *)
  Alcotest.(check bool) "one-sided dropped (0x100)" true
    (Aval.equal (State.load ~program j 0x10000100) Aval.top);
  Alcotest.(check bool) "one-sided dropped (0x104)" true
    (Aval.equal (State.load ~program j 0x10000104) Aval.top);
  let a2 = State.store ~linkage:no_linkage base 0x10000100 (Aval.const 3) in
  let j2 = State.join a a2 in
  match State.load ~program j2 0x10000100 with
  | Aval.I (1, 3) -> ()
  | v -> Alcotest.failf "expected [1,3], got %a" Aval.pp v

let test_leq_order () =
  let base = State.entry_state ~assumes:[] in
  let precise = State.store ~linkage:no_linkage base 0x10000100 (Aval.const 1) in
  Alcotest.(check bool) "precise leq base" true (State.leq precise base);
  Alcotest.(check bool) "base not leq precise" false (State.leq base precise);
  Alcotest.(check bool) "reflexive" true (State.leq precise precise)

(* --- memory map and image --- *)

let test_map_lookup () =
  let map = Memory_map.default in
  (match Memory_map.find map 0x10000000 with
  | Some r -> Alcotest.(check string) "ram" "ram" r.Region.name
  | None -> Alcotest.fail "ram not found");
  (match Memory_map.find map 0xF0000000 with
  | Some r -> Alcotest.(check string) "io" "io" r.Region.name
  | None -> Alcotest.fail "io not found");
  Alcotest.(check (option string)) "gap unmapped" None
    (Option.map (fun (r : Region.t) -> r.Region.name) (Memory_map.find map 0x30000000));
  Alcotest.(check int) "worst read is io" 40 (Memory_map.worst_read_latency map)

let test_overlap_rejected () =
  let r1 =
    Region.make ~name:"a" ~kind:Region.Ram ~base:0 ~size:64 ~read_latency:1 ~write_latency:1
      ~cacheable:false ~writable:true
  in
  let r2 =
    Region.make ~name:"b" ~kind:Region.Ram ~base:32 ~size:64 ~read_latency:1 ~write_latency:1
      ~cacheable:false ~writable:true
  in
  match Memory_map.make [ r1; r2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected overlap rejection"

let test_image_faults () =
  let image = Image.create Memory_map.default in
  Alcotest.check_raises "unaligned" (Image.Bus_error 0x10000002) (fun () ->
      ignore (Image.read_word image 0x10000002));
  Alcotest.check_raises "unmapped" (Image.Bus_error 0x30000000) (fun () ->
      ignore (Image.read_word image 0x30000000));
  Alcotest.check_raises "rom write" (Image.Write_to_rom 0x100) (fun () ->
      Image.write_word image 0x100 1)

let test_image_copy_isolated () =
  let image = Image.create Memory_map.default in
  Image.write_word image 0x10000000 42;
  let copy = Image.copy image in
  Image.write_word copy 0x10000000 7;
  Alcotest.(check int) "original intact" 42 (Image.read_word image 0x10000000);
  Alcotest.(check int) "copy changed" 7 (Image.read_word copy 0x10000000)

let ps = Image.page_size
let ram = 0x10000000

let test_image_untouched_reads_zero () =
  let image = Image.create Memory_map.default in
  List.iter
    (fun addr ->
      Alcotest.(check int) (Printf.sprintf "0x%08x" addr) 0 (Image.read_word image addr))
    [ 0; 0x3FFFC; ram; ram + 0xFFFFC; 0x20000000; 0xF000FFFC ];
  Image.write_word image ram 5;
  Alcotest.(check int) "next page of a touched region" 0 (Image.read_word image (ram + ps));
  Alcotest.(check (list (pair string int))) "one page dumped" [ ("ram", 0) ]
    (List.map (fun (name, off, _) -> (name, off)) (Image.contents image))

let test_image_page_boundary () =
  let image = Image.create Memory_map.default in
  let last = ram + ps - 4 and first = ram + ps in
  Image.write_word image last 0xDEADBEEF;
  Image.write_word image first 0x12345678;
  Alcotest.(check int) "last word of page 0" 0xDEADBEEF (Image.read_word image last);
  Alcotest.(check int) "first word of page 1" 0x12345678 (Image.read_word image first);
  Alcotest.(check int) "neighbour below" 0 (Image.read_word image (last - 4));
  Alcotest.(check int) "neighbour above" 0 (Image.read_word image (first + 4));
  Alcotest.(check (list (pair string int))) "two pages" [ ("ram", 0); ("ram", ps) ]
    (List.map (fun (name, off, _) -> (name, off)) (Image.contents image))

(* A region whose size is not a page multiple: its last page is cut at the
   region's end, and faults are as before. *)
let test_image_partial_page () =
  let size = ps + 12 in
  let rom =
    Region.make ~name:"rom" ~kind:Region.Rom ~base:0 ~size ~read_latency:1 ~write_latency:1
      ~cacheable:true ~writable:false
  in
  let data =
    Region.make ~name:"data" ~kind:Region.Ram ~base:0x1000 ~size ~read_latency:1
      ~write_latency:1 ~cacheable:true ~writable:true
  in
  let image = Image.create (Memory_map.make [ rom; data ]) in
  let end_ = 0x1000 + size in
  Image.write_word image (end_ - 4) 9;
  Alcotest.(check int) "last word" 9 (Image.read_word image (end_ - 4));
  Alcotest.(check (list (triple string int int))) "cut last page" [ ("data", ps, 12) ]
    (List.map (fun (name, off, b) -> (name, off, String.length b)) (Image.contents image));
  Alcotest.check_raises "past the end" (Image.Bus_error end_) (fun () ->
      ignore (Image.read_word image end_));
  Alcotest.check_raises "write past the end" (Image.Bus_error end_) (fun () ->
      Image.write_word image end_ 1);
  Alcotest.check_raises "unaligned" (Image.Bus_error (end_ - 6)) (fun () ->
      Image.write_word image (end_ - 6) 1);
  Alcotest.check_raises "rom write" (Image.Write_to_rom (size - 4)) (fun () ->
      Image.write_word image (size - 4) 1);
  Image.load_words image ~base:(size - 8) [| 1; 2 |];
  Alcotest.(check int) "loader writes rom" 2 (Image.read_word image (size - 4))

let test_image_copy_pages () =
  let image = Image.create Memory_map.default in
  Image.write_word image ram 1;
  let copy = Image.copy image in
  Image.write_word image ram 2;
  Image.write_word image (ram + ps) 3;
  Image.write_word copy (ram + (2 * ps)) 4;
  Alcotest.(check (list int)) "copy keeps its own pages" [ 1; 0; 4 ]
    (List.map (Image.read_word copy) [ ram; ram + ps; ram + (2 * ps) ]);
  Alcotest.(check (list int)) "original keeps its own pages" [ 2; 3; 0 ]
    (List.map (Image.read_word image) [ ram; ram + ps; ram + (2 * ps) ])

let test_image_contents_canonical () =
  let writes = [ (ram + ps, 7); (ram, 1); (0x20000000, 2); (ram + 8, 3) ] in
  let build ws =
    let image = Image.create Memory_map.default in
    List.iter (fun (a, v) -> Image.write_word image a v) ws;
    image
  in
  let a = build writes and b = build (List.rev writes) in
  Alcotest.(check bool) "write order does not matter" true (Image.contents a = Image.contents b);
  Image.write_word b (ram + (5 * ps)) 0;
  Alcotest.(check bool) "zero writes do not matter" true (Image.contents a = Image.contents b)

(* Words allocated on both heaps (a 256 KiB backing would go straight to
   the major heap). Major words include the promoted ones, which
   [Gc.minor_words] already counted. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_image_pays_for_touched () =
  let code = Array.init 256 (fun i -> i) in
  let before = allocated_words () in
  let image = Image.create Memory_map.default in
  Image.load_words image ~base:0x100 code;
  let words = allocated_words () -. before in
  Alcotest.(check int) "loaded" 255 (Image.read_word image (0x100 + (4 * 255)));
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 1 KiB of code, one ROM is 32768" words)
    true (words < 4096.)

let () =
  Alcotest.run "state_memory"
    [
      ( "state",
        [
          Alcotest.test_case "registers" `Quick test_reg_ops;
          Alcotest.test_case "memory tracking" `Quick test_memory_tracking;
          Alcotest.test_case "rom constants" `Quick test_rom_reads_are_constants;
          Alcotest.test_case "weak update" `Quick test_weak_update;
          Alcotest.test_case "havoc spares linkage" `Quick test_havoc_and_linkage;
          Alcotest.test_case "join drops one-sided" `Quick test_join_drops_one_sided;
          Alcotest.test_case "leq order" `Quick test_leq_order;
        ] );
      ( "memory",
        [
          Alcotest.test_case "map lookup" `Quick test_map_lookup;
          Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
          Alcotest.test_case "image faults" `Quick test_image_faults;
          Alcotest.test_case "image copy isolation" `Quick test_image_copy_isolated;
          Alcotest.test_case "untouched reads zero" `Quick test_image_untouched_reads_zero;
          Alcotest.test_case "page boundary" `Quick test_image_page_boundary;
          Alcotest.test_case "partial last page" `Quick test_image_partial_page;
          Alcotest.test_case "copy copies pages" `Quick test_image_copy_pages;
          Alcotest.test_case "contents canonical" `Quick test_image_contents_canonical;
          Alcotest.test_case "pays for touched pages" `Quick test_image_pays_for_touched;
        ] );
    ]
