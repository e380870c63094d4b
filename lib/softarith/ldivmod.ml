module Metrics = Wcet_obs.Metrics

(* Bucket bounds follow the paper's table rows (see [bucketize]). Recorded
   serially from the merged shard tallies, so the metric is bit-identical
   for any PAR_DOMAINS — the shard layout is fixed by the sample count. *)
let m_iterations =
  Metrics.histogram ~name:"ldivmod_iterations"
    ~help:"Correction-loop iteration counts of sampled 32-bit divisions"
    ~buckets:[| 0; 1; 2; 3; 9; 19; 39; 59; 79; 99; 135; 255 |]
    ()

type result = { quotient : int; remainder : int; iterations : int }

let mask32 = 0xFFFFFFFF

(* Mirrors __ediv in the MiniC runtime: 32-by-16-bit restoring division.
   For the reference model the restoring loop is equivalent to exact
   integer division, which we use directly. *)
let ediv a b = if b = 0 then (mask32, a) else (a / b, a mod b)

let udivmod a b =
  let a = a land mask32 and b = b land mask32 in
  if b = 0 then { quotient = mask32; remainder = a; iterations = 0 }
  else if b < 0x10000 then begin
    let qh, r1 = ediv (a lsr 16) b in
    let low = (r1 lsl 16) lor (a land 0xFFFF) in
    let ql, r = ediv low b in
    { quotient = ((qh lsl 16) lor ql) land mask32; remainder = r; iterations = 0 }
  end
  else begin
    (* Slow path: the first approximation pass always runs (like the
       original routine), then correction passes until the remainder is
       below the divisor. *)
    let d = b lsr 16 in
    let q = ref 0 and r = ref a and iterations = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      incr iterations;
      let t, _ = ediv (!r lsr 16) (d + 1) in
      let t = if t = 0 && !r >= b then 1 else t in
      q := (!q + t) land mask32;
      r := (!r - (t * b)) land mask32;
      continue_ := !r >= b
    done;
    { quotient = !q; remainder = !r; iterations = !iterations }
  end

(* The correction loop of [udivmod]'s slow path, counting passes. It is a
   top-level function with [b] and [d1] as arguments: a local closure over
   them would be allocated on every call (6 words; flambda is off). *)
let rec correction_passes b d1 r n =
  let t = (r lsr 16) / d1 in
  let t = if t = 0 && r >= b then 1 else t in
  let r = (r - (t * b)) land mask32 in
  let n = n + 1 in
  if r >= b then correction_passes b d1 r n else n

(* Allocation-free [iterations]: the histogram calls this once per sample,
   and the [result] record (plus the refs inside [udivmod]) would otherwise
   be the sampling loop's only remaining allocations. Property-tested
   against [udivmod], and tested to allocate nothing, in test_softarith. *)
let iterations a b =
  let b = b land mask32 in
  if b < 0x10000 then 0 else correction_passes b ((b lsr 16) + 1) (a land mask32) 0

let udivmod_restoring a b =
  let a = a land mask32 and b = b land mask32 in
  let q = ref 0 and r = ref 0 and a = ref a in
  for _ = 1 to 32 do
    r := ((!r lsl 1) lor ((!a lsr 31) land 1)) land mask32;
    a := (!a lsl 1) land mask32;
    q := (!q lsl 1) land mask32;
    if !r >= b then begin
      r := !r - b;
      q := !q lor 1
    end
  done;
  { quotient = !q; remainder = !r; iterations = 32 }

(* The sample stream is split into a fixed number of shards, each drawing
   from its own PCG stream (same seed, distinct stream-selector [seq] — the
   generator's designed splitting mechanism). The shard layout depends only
   on [samples], never on the domain count, and shards are merged in shard
   order, so the result is bit-identical whether the shards run serially or
   across any number of domains. Shard 0 uses the default stream, so small
   runs (< 1024 samples, a single shard) reproduce the historical serial
   histogram exactly. *)
let shard_count samples = if samples < 1024 then 1 else 64

let base_seq = 54L (* Pcg's default stream selector *)

(* Iteration counts are tiny (the paper's maximum over 10^8 samples is 204;
   the restoring divider is fixed at 32), so per-shard tallies are flat
   arrays — the per-sample hashtable updates used to dominate the whole
   experiment's runtime. *)
let max_iter = 1024

let histogram ?domains ~samples ~seed () =
  let shards = shard_count samples in
  let shard_samples s = (samples / shards) + if s < samples mod shards then 1 else 0 in
  let run_shard s =
    let rng = Wcet_util.Pcg.create ~seq:(Int64.add base_seq (Int64.of_int s)) ~seed () in
    let counts = Array.make max_iter 0 in
    let witnesses = Array.make max_iter (0, 0) in
    for _ = 1 to shard_samples s do
      let a = Wcet_util.Pcg.next_uint32_int rng in
      let b = Wcet_util.Pcg.next_uint32_int rng in
      let n = iterations a b in
      if n >= max_iter then invalid_arg "Ldivmod.histogram: iteration count out of range";
      counts.(n) <- counts.(n) + 1;
      if counts.(n) = 1 then witnesses.(n) <- (a, b)
    done;
    (counts, witnesses)
  in
  let parts = Wcet_util.Parallel.map ?domains shards run_shard in
  let counts = Array.make max_iter 0 in
  let witnesses = Array.make max_iter (0, 0) in
  (* Merge in shard order: totals commute, and the first shard containing an
     iteration count supplies its witness, so the result is independent of
     the domain count. *)
  Array.iter
    (fun (shard_counts, shard_witnesses) ->
      for n = 0 to max_iter - 1 do
        if shard_counts.(n) > 0 then begin
          if counts.(n) = 0 then witnesses.(n) <- shard_witnesses.(n);
          counts.(n) <- counts.(n) + shard_counts.(n)
        end
      done)
    parts;
  let hist = ref [] in
  for n = max_iter - 1 downto 0 do
    if counts.(n) > 0 then begin
      Metrics.observe_n m_iterations n ~n:counts.(n);
      hist := (n, counts.(n)) :: !hist
    end
  done;
  let hist = !hist in
  let top =
    hist |> List.rev
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (n, _) -> (n, witnesses.(n)))
  in
  (hist, top)

let bucketize hist =
  let buckets =
    [
      ("0", 0, 0); ("1", 1, 1); ("2", 2, 2); ("3", 3, 3);
      ("4 .. 9", 4, 9); ("10 .. 19", 10, 19); ("20 .. 39", 20, 39);
      ("40 .. 59", 40, 59); ("60 .. 79", 60, 79); ("80 .. 99", 80, 99);
      ("100 .. 135", 100, 135);
    ]
  in
  let in_bucket lo hi = List.fold_left (fun acc (n, c) -> if n >= lo && n <= hi then acc + c else acc) 0 hist in
  let bucket_rows =
    List.filter_map
      (fun (label, lo, hi) ->
        let c = in_bucket lo hi in
        if c > 0 || hi <= 3 then Some (label, c) else None)
      buckets
  in
  let tail_rows =
    List.filter_map (fun (n, c) -> if n > 135 then Some (string_of_int n, c) else None) hist
  in
  bucket_rows @ tail_rows
