type gc = {
  words : float;
  minor_collections : float;
  major_collections : float;
  promoted_words : float;
}

(* Promoted words are counted once in minor_words (where they were
   allocated) and again in major_words (where they were copied to), so
   they are taken out once. *)
let gc () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor_collections = float s.Gc.minor_collections;
    major_collections = float s.Gc.major_collections;
    promoted_words = s.Gc.promoted_words;
  }

let diff a b =
  {
    words = a.words -. b.words;
    minor_collections = a.minor_collections -. b.minor_collections;
    major_collections = a.major_collections -. b.major_collections;
    promoted_words = a.promoted_words -. b.promoted_words;
  }

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let now = Wcet_util.Mono_clock.now
