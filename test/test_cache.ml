(* Cache-model tests: the concrete LRU cache, and the soundness of the
   abstract must/may states against it on random traces (the guarantee that
   makes always-hit/always-miss classifications safe). *)

module Cache_config = Pred32_hw.Cache_config
module Lru = Pred32_hw.Lru_cache
module Acache = Wcet_cache.Acache
module Pcg = Wcet_util.Pcg

let cfg = Cache_config.make ~sets:4 ~assoc:2 ~line_bytes:16

(* --- concrete LRU --- *)

let test_lru_basic () =
  let c = Lru.create cfg in
  Alcotest.(check bool) "first access misses" false (Lru.access c 0);
  Alcotest.(check bool) "second access hits" true (Lru.access c 0);
  Alcotest.(check bool) "different set misses" false (Lru.access c 1);
  Alcotest.(check bool) "still hits" true (Lru.access c 0)

let test_lru_eviction () =
  let c = Lru.create cfg in
  (* lines 0, 4, 8 all map to set 0 (4 sets): 2-way evicts the LRU *)
  ignore (Lru.access c 0);
  ignore (Lru.access c 4);
  Alcotest.(check bool) "0 still in" true (Lru.access c 0);
  ignore (Lru.access c 8);
  (* 4 was LRU, evicted *)
  Alcotest.(check bool) "4 evicted" false (Lru.access c 4);
  (* and that access evicted 0 *)
  Alcotest.(check bool) "0 evicted" false (Lru.access c 0)

let test_lru_probe_no_touch () =
  let c = Lru.create cfg in
  ignore (Lru.access c 0);
  ignore (Lru.access c 4);
  (* probing 0 must not refresh it *)
  Alcotest.(check bool) "probe sees 0" true (Lru.probe c 0);
  ignore (Lru.access c 8);
  Alcotest.(check bool) "0 was still LRU" false (Lru.access c 0)

let test_lru_copy_independent () =
  let c = Lru.create cfg in
  ignore (Lru.access c 0);
  let d = Lru.copy c in
  ignore (Lru.access d 4);
  ignore (Lru.access d 8);
  Alcotest.(check bool) "original unaffected" true (Lru.probe c 0)

(* --- abstract vs concrete soundness --- *)

(* Walk a random trace in both the concrete cache and the abstract state.
   Before every access: if must says present, the concrete access must hit;
   if may says absent, it must miss. *)
let test_abstract_soundness () =
  let rng = Pcg.create ~seed:99L () in
  for _trace = 1 to 200 do
    let concrete = Lru.create cfg in
    let abstract = ref (Acache.empty cfg) in
    for _step = 1 to 100 do
      let line = Pcg.next_int rng 16 in
      let must_hit = Acache.must_contains !abstract line in
      let may_miss = Acache.may_excludes !abstract line in
      let hit = Lru.access concrete line in
      if must_hit && not hit then Alcotest.failf "must-cache lied: line %d missed" line;
      if may_miss && hit then Alcotest.failf "may-cache lied: line %d hit" line;
      abstract := Acache.access !abstract line
    done
  done

(* Joins must stay sound: abstract state joined with anything still only
   promises what both paths guarantee. *)
let test_abstract_join_soundness () =
  let rng = Pcg.create ~seed:123L () in
  for _trace = 1 to 100 do
    (* two prefixes, then a common suffix applied to the join *)
    let concrete = Lru.create cfg in
    let a = ref (Acache.empty cfg) and b = ref (Acache.empty cfg) in
    let take_branch_a = Pcg.next_bool rng in
    for _ = 1 to 20 do
      let line = Pcg.next_int rng 16 in
      let which = Pcg.next_bool rng in
      if which then begin
        a := Acache.access !a line;
        if take_branch_a then ignore (Lru.access concrete line)
      end
      else begin
        b := Acache.access !b line;
        if not take_branch_a then ignore (Lru.access concrete line)
      end
    done;
    let joined = ref (Acache.join !a !b) in
    for _ = 1 to 40 do
      let line = Pcg.next_int rng 16 in
      let must_hit = Acache.must_contains !joined line in
      let may_miss = Acache.may_excludes !joined line in
      let hit = Lru.access concrete line in
      if must_hit && not hit then Alcotest.failf "joined must lied on line %d" line;
      if may_miss && hit then Alcotest.failf "joined may lied on line %d" line;
      joined := Acache.access !joined line
    done
  done

(* access_unknown must keep soundness whatever line was actually touched. *)
let test_unknown_access_soundness () =
  let rng = Pcg.create ~seed:77L () in
  for _trace = 1 to 100 do
    let concrete = Lru.create cfg in
    let abstract = ref (Acache.empty cfg) in
    for _ = 1 to 50 do
      if Pcg.next_int rng 4 = 0 then begin
        (* an access the analysis could not resolve: concrete touches a
           random line, abstract records an unknown access *)
        ignore (Lru.access concrete (Pcg.next_int rng 16));
        abstract := Acache.access_unknown !abstract
      end
      else begin
        let line = Pcg.next_int rng 16 in
        let must_hit = Acache.must_contains !abstract line in
        let may_miss = Acache.may_excludes !abstract line in
        let hit = Lru.access concrete line in
        if must_hit && not hit then Alcotest.failf "must lied after unknown access" ;
        if may_miss && hit then Alcotest.failf "may lied after unknown access";
        abstract := Acache.access !abstract line
      end
    done
  done

let test_must_monotone_leq () =
  (* join is an upper bound under leq *)
  let rng = Pcg.create ~seed:5L () in
  for _ = 1 to 200 do
    let mk () =
      let s = ref (Acache.empty cfg) in
      for _ = 1 to Pcg.next_int rng 20 do
        s := Acache.access !s (Pcg.next_int rng 16)
      done;
      !s
    in
    let a = mk () and b = mk () in
    let j = Acache.join a b in
    Alcotest.(check bool) "a leq join" true (Acache.leq a j);
    Alcotest.(check bool) "b leq join" true (Acache.leq b j);
    Alcotest.(check bool) "join idempotent" true (Acache.equal j (Acache.join j j))
  done

(* --- set-local states against the whole-map oracle --- *)

module Ref = Acache_ref

(* One abstract state in both representations, advanced in lockstep. *)
type twin = { lib : Acache.t; oracle : Ref.t }

let twin_empty cfg = { lib = Acache.empty cfg; oracle = Ref.empty cfg }
let twin_access t line = { lib = Acache.access t.lib line; oracle = Ref.access t.oracle line }
let twin_unknown t = { lib = Acache.access_unknown t.lib; oracle = Ref.access_unknown t.oracle }
let twin_join a b = { lib = Acache.join a.lib b.lib; oracle = Ref.join a.oracle b.oracle }

(* Every observation the analysis makes of a state: both classifications
   of every line in range, the printed state, and leq both ways and
   equality against another state. *)
let check_twins what ~lines t other =
  for line = 0 to lines - 1 do
    if Acache.must_contains t.lib line <> Ref.must_contains t.oracle line then
      Alcotest.failf "%s: must_contains %d differs" what line;
    if Acache.may_excludes t.lib line <> Ref.may_excludes t.oracle line then
      Alcotest.failf "%s: may_excludes %d differs" what line
  done;
  Alcotest.(check string)
    (what ^ ": pp") (Format.asprintf "%a" Ref.pp t.oracle) (Format.asprintf "%a" Acache.pp t.lib);
  let agree name lib oracle =
    if lib <> oracle then Alcotest.failf "%s: %s is %b, oracle says %b" what name lib oracle
  in
  agree "leq" (Acache.leq t.lib other.lib) (Ref.leq t.oracle other.oracle);
  agree "geq" (Acache.leq other.lib t.lib) (Ref.leq other.oracle t.oracle);
  agree "equal" (Acache.equal t.lib other.lib) (Ref.equal t.oracle other.oracle)

(* Seeded traces over 1/4/16 sets x 1/2/4 ways mixing known and unknown
   accesses with joins, both against independently built states and
   against earlier states of the same trace (which share most sets). *)
let test_matches_oracle () =
  List.iter
    (fun (sets, assoc) ->
      let cfg = Cache_config.make ~sets ~assoc ~line_bytes:16 in
      let lines = 3 * sets * assoc in
      let rng = Pcg.create ~seed:(Int64.of_int ((100 * sets) + assoc)) () in
      let trace n =
        let t = ref (twin_empty cfg) in
        for _ = 1 to n do
          t :=
            if Pcg.next_int rng 10 = 0 then twin_unknown !t
            else twin_access !t (Pcg.next_int rng lines)
        done;
        !t
      in
      for k = 1 to 12 do
        let others = Array.init 3 (fun _ -> trace (Pcg.next_int rng 30)) in
        let history = ref [ twin_empty cfg ] in
        let t = ref (twin_empty cfg) in
        for step = 1 to 60 do
          let earlier = List.nth !history (Pcg.next_int rng (List.length !history)) in
          (t :=
             match Pcg.next_int rng 20 with
             | 0 -> twin_unknown !t
             | 1 | 2 -> twin_join !t others.(Pcg.next_int rng 3)
             | 3 | 4 -> twin_join !t earlier
             | 5 -> twin_join earlier !t
             | _ -> twin_access !t (Pcg.next_int rng lines));
          let what = Printf.sprintf "%d sets x %d ways, trace %d step %d" sets assoc k step in
          check_twins what ~lines !t earlier;
          check_twins what ~lines !t others.(step mod 3);
          history := !t :: !history
        done
      done)
    [ (1, 1); (1, 2); (1, 4); (4, 1); (4, 2); (4, 4); (16, 1); (16, 2); (16, 4) ]

(* Re-fetching the line just fetched — every instruction of a cache line
   after its first — changes nothing, so it must cost nothing. *)
let test_youngest_reaccess_allocation () =
  let cfg = Cache_config.make ~sets:16 ~assoc:2 ~line_bytes:16 in
  let s = List.fold_left Acache.access (Acache.empty cfg) [ 0; 16; 1; 17; 3; 0 ] in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let s' = Acache.access s 0 in
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (w2 -. w1 -. (w1 -. w0));
  Alcotest.(check bool) "state returned unchanged" true (s' == s)

(* --- cache config --- *)

let test_config_lines () =
  Alcotest.(check int) "line of addr" 2 (Cache_config.line_of_addr cfg 0x20);
  Alcotest.(check (list int)) "range lines" [ 1; 2 ]
    (Cache_config.lines_of_range cfg ~addr:0x1C ~size:8);
  Alcotest.(check int) "set wraps" (Cache_config.set_of_line cfg 0)
    (Cache_config.set_of_line cfg 4);
  Alcotest.(check int) "capacity" 128 (Cache_config.capacity_bytes cfg)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basic hit/miss" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "probe does not touch" `Quick test_lru_probe_no_touch;
          Alcotest.test_case "copy independence" `Quick test_lru_copy_independent;
        ] );
      ( "abstract",
        [
          Alcotest.test_case "must/may sound on traces" `Quick test_abstract_soundness;
          Alcotest.test_case "join sound" `Quick test_abstract_join_soundness;
          Alcotest.test_case "unknown access sound" `Quick test_unknown_access_soundness;
          Alcotest.test_case "lattice laws" `Quick test_must_monotone_leq;
          Alcotest.test_case "matches whole-map oracle" `Quick test_matches_oracle;
          Alcotest.test_case "youngest re-access allocates nothing" `Quick
            test_youngest_reaccess_allocation;
        ] );
      ("config", [ Alcotest.test_case "geometry" `Quick test_config_lines ]);
    ]
