(** A concrete memory image over a {!Memory_map}: the loaded program plus
    data, as seen by the simulator.

    Word accesses must be 4-byte aligned; unaligned or unmapped accesses
    raise [Bus_error], and writes to read-only regions raise
    [Write_to_rom] — both correspond to hardware faults the simulator
    reports.

    Each region is backed by fixed-size pages of {!page_size} bytes, made
    on the first write into them; untouched memory reads as zero and costs
    nothing, so creating, copying and dumping an image cost only the pages
    the program touched. *)

type t

val page_size : int

exception Bus_error of int
exception Write_to_rom of int

val create : Memory_map.t -> t
val memory_map : t -> Memory_map.t

(** [read_word t addr] ignores write-only concerns; unmapped/unaligned
    raises [Bus_error addr]. Fresh memory reads as zero. *)
val read_word : t -> int -> Pred32_isa.Word.t

val write_word : t -> int -> Pred32_isa.Word.t -> unit

(** [load_words t ~base words] writes a contiguous block, bypassing the
    read-only check (used by the loader to install code into ROM). *)
val load_words : t -> base:int -> Pred32_isa.Word.t array -> unit

(** [contents t] is every page holding a nonzero byte, as
    [(region name, byte offset of the page in its region, page bytes)],
    sorted by region name and offset. It depends only on the memory
    contents — not on write order, nor on pages that were written with
    zeros — so it is a canonical dump for content-addressed cache keys. A
    region's last page is cut at the region's end. *)
val contents : t -> (string * int * string) list

(** [copy t] is a deep copy (of the touched pages only); the simulator
    snapshots the loaded image so each run starts from identical memory. *)
val copy : t -> t
