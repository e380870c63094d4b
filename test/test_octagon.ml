(* Octagon domain: DBM lattice laws, in-place transfers against their
   persistent wrappers (results, aliasing, allocation), the half-matrix
   library against the full-matrix oracle [Octagon_full], the inertness of
   untouched (top) variables behind register compaction, soundness of the
   escalation against the interval baseline (refined states below the
   interval states on random programs), widening termination, the
   end-to-end discharge fixtures (A0505 input-dependent != exits, A0509
   imprecise accesses) and the golden pin of --domain auto on the corpus. *)

module Octagon = Wcet_value.Octagon
module Analysis = Wcet_value.Analysis
module Loop_bounds = Wcet_value.Loop_bounds
module State = Wcet_value.State
module Aval = Wcet_value.Aval
module Supergraph = Wcet_cfg.Supergraph
module Loops = Wcet_cfg.Loops
module Analyzer = Wcet_core.Analyzer
module Audit = Misra.Audit
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Corpus = Wcet_corpus.Corpus
module Annot = Wcet_annot.Annot
module Pcg = Wcet_util.Pcg

(* ---- DBM unit and property tests ------------------------------------ *)

let test_closure_laws () =
  let o = Octagon.top 4 in
  let o = Octagon.assign_interval o 0 (0, 10) in
  let o = Octagon.assign_interval o 1 (5, 5) in
  (* x0 - x1 <= 2  and  x1 <= 5  must close to  x0 <= 7 *)
  let o = Octagon.add_diff o ~u:0 ~v:1 2 in
  (match Octagon.var_bounds o 0 with
  | _, Some hi -> Alcotest.(check bool) "closure derives x0 <= 7" true (hi <= 7)
  | _, None -> Alcotest.fail "x0 unbounded after closure");
  (* full Floyd-Warshall closure is idempotent and a no-op on the
     incrementally-closed DBM *)
  let c1 = Octagon.close o in
  let c2 = Octagon.close c1 in
  Alcotest.(check bool) "close idempotent" true (Octagon.equal c1 c2);
  Alcotest.(check bool) "incremental closure is already closed" true (Octagon.equal o c1)

let test_join_meet_lattice () =
  let mk lo hi =
    Octagon.assign_interval (Octagon.top 2) 0 (lo, hi)
  in
  let a = mk 0 10 and b = mk 5 20 in
  let j = Octagon.join a b and m = Octagon.meet a b in
  Alcotest.(check bool) "a leq join" true (Octagon.leq a j);
  Alcotest.(check bool) "b leq join" true (Octagon.leq b j);
  Alcotest.(check bool) "meet leq a" true (Octagon.leq m a);
  Alcotest.(check bool) "meet leq b" true (Octagon.leq m b);
  Alcotest.(check (pair (option int) (option int))) "join bounds" (Some 0, Some 20)
    (Octagon.var_bounds j 0);
  Alcotest.(check (pair (option int) (option int))) "meet bounds" (Some 5, Some 10)
    (Octagon.var_bounds m 0);
  let empty = Octagon.meet (mk 0 1) (mk 5 6) in
  Alcotest.(check bool) "disjoint meet is bottom" true (Octagon.is_bot empty)

let test_bottom_propagation () =
  let b = Octagon.bottom 3 in
  Alcotest.(check bool) "bottom is bottom" true (Octagon.is_bot b);
  Alcotest.(check bool) "bottom leq top" true (Octagon.leq b (Octagon.top 3));
  let o = Octagon.assign_interval (Octagon.top 3) 1 (4, 4) in
  Alcotest.(check bool) "join with bottom is identity" true
    (Octagon.equal (Octagon.join b o) o);
  (* contradictory constraints must collapse to bottom *)
  let o = Octagon.add_ub o 1 3 in
  Alcotest.(check bool) "x=4 meets x<=3 is bottom" true (Octagon.is_bot o)

let test_random_closure_soundness () =
  (* Random constraint sets: the closed DBM must imply every constraint it
     was given (closure only tightens, never drops), and full closure must
     be idempotent. *)
  let rng = Pcg.create ~seed:42L () in
  for _ = 1 to 50 do
    let dim = 2 + Pcg.next_int rng 3 in
    let o = ref (Octagon.top dim) in
    let cons = ref [] in
    for _ = 1 to 8 do
      let u = Pcg.next_int rng dim and v = Pcg.next_int rng dim in
      let c = Pcg.next_int rng 100 in
      let lo = Pcg.next_int rng 50 in
      match Pcg.next_int rng 3 with
      | 0 ->
        if u <> v then begin
          o := Octagon.add_diff !o ~u ~v c;
          cons := `Diff (u, v, c) :: !cons
        end
      | 1 ->
        o := Octagon.add_ub !o u (lo + c);
        cons := `Ub (u, lo + c) :: !cons
      | _ ->
        o := Octagon.add_lb !o u lo;
        cons := `Lb (u, lo) :: !cons
    done;
    if not (Octagon.is_bot !o) then begin
      let closed = Octagon.close !o in
      Alcotest.(check bool) "close idempotent (random)" true
        (Octagon.equal closed (Octagon.close closed));
      List.iter
        (function
          | `Diff (u, v, c) -> (
            match Octagon.diff_bounds closed ~u ~v with
            | _, Some hi -> Alcotest.(check bool) "diff constraint kept" true (hi <= c)
            | _, None -> Alcotest.fail "closure dropped a difference constraint")
          | `Ub (u, c) -> (
            match Octagon.var_bounds closed u with
            | _, Some hi -> Alcotest.(check bool) "ub kept" true (hi <= c)
            | _, None -> Alcotest.fail "closure dropped an upper bound")
          | `Lb (u, c) -> (
            match Octagon.var_bounds closed u with
            | Some lo, _ -> Alcotest.(check bool) "lb kept" true (lo >= c)
            | None, _ -> Alcotest.fail "closure dropped a lower bound"))
        !cons
    end
  done

let test_widening_termination () =
  (* Widening an ascending chain must reach a fixpoint in finitely many
     steps even with thresholds. *)
  let thresholds = [| 8; 16; 64; 128 |] in
  let state = ref (Octagon.assign_interval (Octagon.top ~thresholds 2) 0 (0, 0)) in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 1000 do
    incr steps;
    let next = Octagon.assign_interval (Octagon.top ~thresholds 2) 0 (0, !steps * 3) in
    let w = Octagon.widen !state next in
    if Octagon.leq next !state && Octagon.equal w !state then continue := false
    else state := w
  done;
  Alcotest.(check bool) "widening chain stabilizes quickly" true (!steps < 64)

(* ---- in-place transfers --------------------------------------------- *)

type op =
  | Forget of int
  | Diff of int * int * int
  | Ub of int * int
  | Lb of int * int
  | Plus of int * int * int
  | Interval of int * int * int
  | Shift of int * int  (* assign_var_plus with dst = src *)

let random_op rng dim =
  let var () = Pcg.next_int rng dim and const () = Pcg.next_int rng 120 - 20 in
  match Pcg.next_int rng 7 with
  | 0 -> Forget (var ())
  | 1 -> Diff (var (), var (), const ())
  | 2 -> Ub (var (), const ())
  | 3 -> Lb (var (), const ())
  | 4 -> Plus (var (), var (), const ())
  | 5 ->
    let lo = const () in
    Interval (var (), lo, lo + Pcg.next_int rng 40)
  | _ -> Shift (var (), const ())

(* A step of a random octagon history: a thawed block of in-place ops, one
   persistent op, a lattice operation with a second state built from its own
   ops, or a full closure. *)
type step =
  | In_place of op list
  | Persistent of op
  | Join of op list
  | Meet of op list
  | Widen of op list
  | Close

let thresholds = [| 4; 8; 16; 64; 100; 255 |]

(* What the generators drive: the library and the full-matrix oracle
   [Octagon_full] both provide it. *)
module type OCTAGON = sig
  type t
  type buf

  val top : ?thresholds:int array -> int -> t
  val dim : t -> int
  val thaw : t -> buf
  val freeze : buf -> t

  module Buf : sig
    val add_diff : buf -> u:int -> v:int -> int -> unit
    val add_ub : buf -> int -> int -> unit
    val add_lb : buf -> int -> int -> unit
    val forget : buf -> int -> unit
    val assign_var_plus : buf -> dst:int -> src:int -> int -> unit
    val assign_interval : buf -> int -> int * int -> unit
  end

  val add_diff : t -> u:int -> v:int -> int -> t
  val add_ub : t -> int -> int -> t
  val add_lb : t -> int -> int -> t
  val forget : t -> int -> t
  val assign_var_plus : t -> dst:int -> src:int -> int -> t
  val assign_interval : t -> int -> int * int -> t
  val join : t -> t -> t
  val meet : t -> t -> t
  val widen : t -> t -> t
  val close : t -> t
end

module Steps (O : OCTAGON) = struct
  let apply_persistent t = function
    | Forget v -> O.forget t v
    | Diff (u, v, c) -> O.add_diff t ~u ~v c
    | Ub (v, c) -> O.add_ub t v c
    | Lb (v, c) -> O.add_lb t v c
    | Plus (dst, src, c) -> O.assign_var_plus t ~dst ~src c
    | Interval (v, lo, hi) -> O.assign_interval t v (lo, hi)
    | Shift (v, c) -> O.assign_var_plus t ~dst:v ~src:v c

  let apply_in_place b = function
    | Forget v -> O.Buf.forget b v
    | Diff (u, v, c) -> O.Buf.add_diff b ~u ~v c
    | Ub (v, c) -> O.Buf.add_ub b v c
    | Lb (v, c) -> O.Buf.add_lb b v c
    | Plus (dst, src, c) -> O.Buf.assign_var_plus b ~dst ~src c
    | Interval (v, lo, hi) -> O.Buf.assign_interval b v (lo, hi)
    | Shift (v, c) -> O.Buf.assign_var_plus b ~dst:v ~src:v c

  let run_step t = function
    | In_place ops ->
      let b = O.thaw t in
      List.iter (apply_in_place b) ops;
      O.freeze b
    | Persistent op -> apply_persistent t op
    | Join ops -> O.join t (List.fold_left apply_persistent t ops)
    | Meet ops -> O.meet t (List.fold_left apply_persistent (O.top ~thresholds (O.dim t)) ops)
    | Widen ops -> O.widen t (List.fold_left apply_persistent t ops)
    | Close -> O.close t
end

module Lib_steps = Steps (Octagon)
module Full = Octagon_full
module Full_steps = Steps (Full)

let apply_persistent = Lib_steps.apply_persistent
let apply_in_place = Lib_steps.apply_in_place
let run_step = Lib_steps.run_step

(* One thaw, a random op sequence in place, one freeze must equal the same
   sequence through the persistent wrappers (a thaw and freeze per op), and
   the thawed state must come out untouched: the fixpoint stores it. *)
let test_in_place_matches_persistent () =
  let rng = Pcg.create ~seed:1207L () in
  for _ = 1 to 200 do
    let dim = 2 + Pcg.next_int rng 31 in
    let ops k = List.init k (fun _ -> random_op rng dim) in
    let prefix = ops (Pcg.next_int rng 6) and seq = ops (1 + Pcg.next_int rng 12) in
    let build () = List.fold_left apply_persistent (Octagon.top dim) prefix in
    let start = build () in
    let b = Octagon.thaw start in
    List.iter (apply_in_place b) seq;
    Alcotest.(check bool) "buf bottom agrees" (Octagon.Buf.is_bot b)
      (Octagon.is_bot (List.fold_left apply_persistent start seq));
    let in_place = Octagon.freeze b in
    let persistent = List.fold_left apply_persistent start seq in
    Alcotest.(check bool)
      (Printf.sprintf "dim %d: in-place equals persistent" dim)
      true
      (Octagon.equal in_place persistent);
    Alcotest.(check bool)
      (Printf.sprintf "dim %d: thawed state unchanged" dim)
      true
      (Octagon.equal start (build ()));
    Alcotest.check_raises "a frozen buf cannot be mutated"
      (Invalid_argument "Octagon.Buf: buffer mutated after freeze") (fun () ->
        Octagon.Buf.forget b 0)
  done

(* ---- the full-matrix oracle ------------------------------------------ *)

let random_step rng dim =
  let ops () = List.init (1 + Pcg.next_int rng 4) (fun _ -> random_op rng dim) in
  match Pcg.next_int rng 12 with
  | 0 | 1 | 2 | 3 -> In_place (ops ())
  | 4 | 5 | 6 -> Persistent (random_op rng dim)
  | 7 | 8 -> Join (ops ())
  | 9 -> Meet (ops ())
  | 10 -> Widen (ops ())
  | _ -> Close

let map_op f = function
  | Forget v -> Forget (f v)
  | Diff (u, v, c) -> Diff (f u, f v, c)
  | Ub (v, c) -> Ub (f v, c)
  | Lb (v, c) -> Lb (f v, c)
  | Plus (dst, src, c) -> Plus (f dst, f src, c)
  | Interval (v, lo, hi) -> Interval (f v, lo, hi)
  | Shift (v, c) -> Shift (f v, c)

let map_step f = function
  | In_place ops -> In_place (List.map (map_op f) ops)
  | Persistent op -> Persistent (map_op f op)
  | Join ops -> Join (List.map (map_op f) ops)
  | Meet ops -> Meet (List.map (map_op f) ops)
  | Widen ops -> Widen (List.map (map_op f) ops)
  | Close -> Close

let bounds = Alcotest.(pair (option int) (option int))

(* Every unary and binary bound the two states expose, on the variables
   listed: [vars_a.(k)] in [a] against [vars_b.(k)] in [b]. *)
let check_same_bounds what ~var_a ~diff_a ~var_b ~diff_b vars_a vars_b =
  Array.iteri
    (fun k u ->
      let u' = vars_b.(k) in
      Alcotest.check bounds (Printf.sprintf "%s: x%d" what u) (var_a u) (var_b u');
      Array.iteri
        (fun l v ->
          if u <> v then
            Alcotest.check bounds
              (Printf.sprintf "%s: x%d - x%d" what u v)
              (diff_a ~u ~v)
              (diff_b ~u:u' ~v:vars_b.(l)))
        vars_a)
    vars_a

(* Seeded histories through the half-matrix library and the full-matrix
   oracle: after every step the two expose the same bounds, the same
   emptiness, and the same [leq]/[equal] verdicts against the previous
   state. *)
let test_matches_full_matrix_oracle () =
  let rng = Pcg.create ~seed:1311L () in
  for dim = 1 to 24 do
    for _ = 1 to 8 do
      let vars = Array.init dim Fun.id in
      let t = ref (Octagon.top ~thresholds dim) and r = ref (Full.top ~thresholds dim) in
      for k = 1 to 12 do
        let step = random_step rng dim in
        let t' = run_step !t step and r' = Full_steps.run_step !r step in
        let what = Printf.sprintf "dim %d step %d" dim k in
        Alcotest.(check bool) (what ^ ": is_bot") (Full.is_bot r') (Octagon.is_bot t');
        Alcotest.(check bool) (what ^ ": leq") (Full.leq !r r') (Octagon.leq !t t');
        Alcotest.(check bool) (what ^ ": leq back") (Full.leq r' !r) (Octagon.leq t' !t);
        Alcotest.(check bool) (what ^ ": equal") (Full.equal !r r') (Octagon.equal !t t');
        check_same_bounds what ~var_a:(Full.var_bounds r') ~diff_a:(Full.diff_bounds r')
          ~var_b:(Octagon.var_bounds t') ~diff_b:(Octagon.diff_bounds t') vars vars;
        t := t';
        r := r'
      done
    done
  done

(* The lemma behind tracking only the registers a program names: a
   variable no operation touches stays top and changes no other bound. The
   same random history over a subset S of a dim-D octagon's variables, and
   over a dim-|S| octagon with the indices remapped, gives equal bounds on
   S. *)
let test_top_variables_are_inert () =
  let rng = Pcg.create ~seed:1312L () in
  for _ = 1 to 120 do
    let big = 2 + Pcg.next_int rng 19 in
    let members = Array.init big (fun _ -> Pcg.next_int rng 2 = 0) in
    members.(Pcg.next_int rng big) <- true;
    let subset = Array.of_list (List.filter (fun v -> members.(v)) (List.init big Fun.id)) in
    let small = Array.length subset in
    let small_vars = Array.init small Fun.id in
    let t = ref (Octagon.top ~thresholds big) and s = ref (Octagon.top ~thresholds small) in
    for k = 1 to 12 do
      let step = random_step rng small in
      t := run_step !t (map_step (fun v -> subset.(v)) step);
      s := run_step !s step;
      let what = Printf.sprintf "dim %d over %d: step %d" big small k in
      Alcotest.(check bool) (what ^ ": is_bot") (Octagon.is_bot !s) (Octagon.is_bot !t);
      check_same_bounds what ~var_a:(Octagon.var_bounds !s) ~diff_a:(Octagon.diff_bounds !s)
        ~var_b:(Octagon.var_bounds !t) ~diff_b:(Octagon.diff_bounds !t) small_vars subset
    done
  done

(* Words allocated by the calling domain, on both heaps: a matrix copy is
   larger than the minor heap's object limit and goes straight to the
   major heap, so [Gc.minor_words] alone would not see it. Major words
   include the promoted ones, which [Gc.minor_words] already counted. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Ten in-place constraint additions on a closed dim-32 octagon allocate
   O(n) words each (the closure scratch, once per buf), far below one
   n(n+2)/2 = 2112-word matrix copy. *)
let test_in_place_allocation () =
  let dim = 32 in
  let n = 2 * dim in
  let o = ref (Octagon.top dim) in
  for v = 0 to dim - 1 do
    o := Octagon.assign_interval !o v (0, 100)
  done;
  let o = Octagon.close !o in
  let b = Octagon.thaw o in
  let before = allocated_words () in
  for i = 0 to 9 do
    Octagon.Buf.add_diff b ~u:i ~v:(i + 1) (50 - i)
  done;
  let per_op = (allocated_words () -. before) /. 10. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per add_diff <= n = %d" per_op n)
    true
    (per_op <= float_of_int n);
  let t = Octagon.freeze b in
  Alcotest.(check bool) "constraints were added" false (Octagon.equal t o);
  Alcotest.(check (pair (option int) (option int)))
    "x9 - x10 tightened" (Some (-100), Some 41)
    (Octagon.diff_bounds t ~u:9 ~v:10)

(* ---- escalation soundness on programs ------------------------------- *)

let leq_opt a b =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> State.leq a b

(* Every corpus scenario (both variants) whose supergraph builds without
   further annotations, escalated on every function: [f entry graph loops
   base esc]. Non-convergence is allowed (the base result is kept). *)
let iter_corpus_escalations f =
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (s : Corpus.scenario) ->
          let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
          let annot = s.Corpus.annotations program in
          let resolver =
            Wcet_cfg.Resolver.with_overrides
              ~recursion_depths:annot.Annot.recursion_depths
              (Wcet_cfg.Resolver.auto program)
          in
          match Supergraph.build ~resolver program with
          | exception Supergraph.Build_error _ -> ()  (* needs annotations beyond this test *)
          | graph ->
          let loops = Loops.analyze graph in
          let assumes =
            List.filter_map
              (fun (sym, lo, hi) ->
                Option.map
                  (fun a -> (a, Aval.interval lo hi))
                  (Pred32_asm.Program.symbol_opt program sym))
              annot.Annot.assumes
          in
          let base = Analysis.run ~assumes graph loops in
          let funcs =
            List.sort_uniq compare
              (Array.to_list graph.Supergraph.nodes
              |> List.map (fun (n : Supergraph.node) -> n.Supergraph.func))
          in
          match Analysis.escalate ~assumes ~funcs base loops with
          | exception Failure _ -> ()
          | esc -> f e graph loops base esc)
        [ e.Corpus.conforming; e.Corpus.violating ])
    Corpus.all

(* Whole-corpus containment: for every scenario, escalating every function
   must produce per-node states below the interval result, and loop bound
   verdicts that are never worse. *)
let test_escalation_below_interval () =
  iter_corpus_escalations (fun e graph loops base esc ->
      let r = esc.Analysis.esc_result in
      Array.iteri
        (fun i _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: refined in-state below interval at node %d" e.Corpus.id i)
            true
            (leq_opt r.Analysis.node_in.(i) base.Analysis.node_in.(i));
          Alcotest.(check bool)
            (Printf.sprintf "%s: refined out-state below interval at node %d" e.Corpus.id i)
            true
            (leq_opt r.Analysis.node_out.(i) base.Analysis.node_out.(i)))
        graph.Supergraph.nodes;
      let bb = Loop_bounds.analyze base loops in
      let rb = Loop_bounds.analyze ~rel:esc.Analysis.esc_rel r loops in
      Array.iteri
        (fun li bv ->
          match (bv, rb.Loop_bounds.per_loop.(li)) with
          | Loop_bounds.Bounded b, Loop_bounds.Bounded r ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: loop %d relational bound not worse" e.Corpus.id li)
              true (r <= b)
          | Loop_bounds.Bounded _, Loop_bounds.Unbounded _ ->
            Alcotest.failf "%s: loop %d lost its bound under the octagon" e.Corpus.id li
          | Loop_bounds.Unbounded _, _ -> ())
        bb.Loop_bounds.per_loop)

(* The escalation tracks r0 and exactly the registers some instruction or
   branch of the supergraph names, then the slots: its dimension is
   nr + slots, and the corpus has programs that leave registers out. *)
let test_escalation_tracks_named_registers () =
  let compacted = ref 0 in
  iter_corpus_escalations (fun e graph _ _ esc ->
      let named = Array.make 16 false in
      let name r = named.(Pred32_isa.Reg.to_int r) <- true in
      name Pred32_isa.Reg.zero;
      Array.iter
        (fun (nd : Supergraph.node) ->
          let block = nd.Supergraph.block in
          Array.iter
            (fun (_, insn) ->
              List.iter name (Pred32_isa.Insn.uses insn @ Pred32_isa.Insn.defs insn))
            block.Wcet_cfg.Func_cfg.insns;
          match block.Wcet_cfg.Func_cfg.term with
          | Wcet_cfg.Func_cfg.Term_branch { rs1; rs2; _ } -> name rs1; name rs2
          | _ -> ())
        graph.Supergraph.nodes;
      let expected = List.filter (fun r -> named.(Pred32_isa.Reg.to_int r)) Pred32_isa.Reg.all in
      let nr = List.length esc.Analysis.esc_regs in
      Alcotest.(check (list string))
        (e.Corpus.id ^ ": tracked registers")
        (List.map Pred32_isa.Reg.name expected)
        (List.map Pred32_isa.Reg.name esc.Analysis.esc_regs);
      Alcotest.(check int)
        (e.Corpus.id ^ ": dim = nr + slots")
        (nr + List.length esc.Analysis.esc_slots)
        esc.Analysis.esc_dim;
      if nr < 16 then incr compacted);
  Alcotest.(check bool) "some escalation tracks fewer than 16 registers" true (!compacted > 0)

(* ---- end-to-end discharge fixtures ---------------------------------- *)

let relational_entry =
  match Corpus.find "relational" with
  | Some e -> e
  | None -> Alcotest.fail "corpus entry 'relational' missing"

let analyze_conforming domain =
  let s = relational_entry.Corpus.conforming in
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  (program, s, Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain program)

(* A0505: the interval pass cannot bound [while (i != n)] against the
   assume-bounded limit; the octagon discharges it and the report says so. *)
let test_a0505_discharged () =
  let _, _, interval = analyze_conforming Analysis.Interval in
  Alcotest.(check bool) "interval verdict is partial" true
    (interval.Analyzer.verdict = Analyzer.Partial);
  Alcotest.(check bool) "interval leaves an unbounded loop" true
    (interval.Analyzer.unbounded_loops <> []);
  let _, _, auto = analyze_conforming Analysis.Auto in
  Alcotest.(check bool) "auto verdict is complete" true
    (auto.Analyzer.verdict = Analyzer.Complete);
  Alcotest.(check bool) "auto leaves no unbounded loop" true
    (auto.Analyzer.unbounded_loops = []);
  match auto.Analyzer.escalation with
  | None -> Alcotest.fail "auto run did not escalate"
  | Some e ->
    Alcotest.(check bool) "a loop was discharged" true (e.Analyzer.ei_discharged_loops <> []);
    let audit = Audit.of_report auto in
    let discharged =
      List.exists
        (fun (f : Audit.finding) ->
          f.Audit.code = "A0505"
          && Astring.String.is_infix ~affix:"discharged-by: octagon" f.Audit.message)
        audit.Audit.findings
    in
    Alcotest.(check bool) "audit marks A0505 discharged-by: octagon" true discharged

(* A0509: the interval pass loses [n - i] to wraparound, so [buf[j]] spans
   multiple regions; the octagon's difference projection collapses it. *)
let test_a0509_discharged () =
  let _, _, interval = analyze_conforming Analysis.Interval in
  let interval_audit = Audit.of_report interval in
  Alcotest.(check bool) "interval audit raises A0509" true
    (List.exists (fun (f : Audit.finding) -> f.Audit.code = "A0509")
       interval_audit.Audit.findings);
  let _, _, auto = analyze_conforming Analysis.Auto in
  let auto_audit = Audit.of_report auto in
  let warning_a0509 =
    List.exists
      (fun (f : Audit.finding) ->
        f.Audit.code = "A0509" && f.Audit.severity = Wcet_diag.Diag.Warning)
      auto_audit.Audit.findings
  in
  Alcotest.(check bool) "auto audit has no A0509 warning left" false warning_a0509;
  let discharged =
    List.exists
      (fun (f : Audit.finding) ->
        f.Audit.code = "A0509"
        && Astring.String.is_infix ~affix:"discharged-by: octagon" f.Audit.message)
      auto_audit.Audit.findings
  in
  Alcotest.(check bool) "audit marks A0509 discharged-by: octagon" true discharged

(* The escalated bound must cover every simulated execution (soundness)
   and must not exceed the interval bound where one exists. *)
let test_escalated_bound_sound () =
  let program, s, auto = analyze_conforming Analysis.Auto in
  Alcotest.(check bool) "bound exists" true (auto.Analyzer.wcet > 0);
  List.iter
    (fun pokes ->
      let sim = Sim.create s.Corpus.hw program in
      List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
      match Sim.run ~fuel:2_000_000 sim with
      | Sim.Halted { cycles; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "simulated %d cycles within escalated bound %d" cycles
             auto.Analyzer.wcet)
          true
          (cycles <= auto.Analyzer.wcet)
      | _ -> Alcotest.fail "simulation did not halt")
    s.Corpus.inputs

(* The checked run's cross-checks must pass on the whole corpus under
   auto. *)
let test_value_paranoid_corpus () =
  List.iter
    (fun (e : Corpus.entry) ->
      let s = e.Corpus.conforming in
      let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
      let annot = s.Corpus.annotations program in
      match
        Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Analysis.Auto ~checks:true program
      with
      | (_ : Analyzer.report) -> ()
      | exception Analyzer.Analysis_failed ds ->
        let e0503 = List.exists (fun (d : Wcet_diag.Diag.t) -> d.code = "E0503") ds in
        Alcotest.(check bool) (Printf.sprintf "%s: no E0503 divergence" e.Corpus.id) false e0503)
    Corpus.all

(* The golden pin: one line per corpus scenario (16 entries x conforming/
   violating) under --domain auto in a checked run (the interval
   cross-check armed) — verdict, bound and everything the escalation
   recorded. The octagon representation may change; these results may
   not. *)
let auto_golden_line id variant (s : Corpus.scenario) =
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  let name = id ^ "/" ^ variant in
  match
    Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Analysis.Auto ~checks:true program
  with
  | exception Analyzer.Analysis_failed ds ->
    Printf.sprintf "%s failed %s" name
      (String.concat "," (List.map (fun (d : Wcet_diag.Diag.t) -> d.Wcet_diag.Diag.code) ds))
  | r ->
    let verdict =
      match r.Analyzer.verdict with Analyzer.Complete -> "complete" | Analyzer.Partial -> "partial"
    in
    let esc =
      match r.Analyzer.escalation with
      | None -> "no-escalation"
      | Some e ->
        let list f l = "[" ^ String.concat ";" (List.map f l) ^ "]" in
        Printf.sprintf "funcs=%s transfers=%d slots=%s discharged=%s tightened=%s"
          (list Fun.id e.Analyzer.ei_funcs) e.Analyzer.ei_transfers
          (list (Printf.sprintf "0x%x") e.Analyzer.ei_slots)
          (list
             (fun (h, f, cause) -> Printf.sprintf "0x%x:%s:%s" h f cause)
             e.Analyzer.ei_discharged_loops)
          (list
             (fun (a, f, before, after) ->
               Format.asprintf "0x%x:%s:%a->%a" a f Aval.pp before Aval.pp after)
             e.Analyzer.ei_tightened_accesses)
    in
    Printf.sprintf "%s %s bound=%d %s" name verdict r.Analyzer.wcet esc

let auto_golden_lines () =
  List.concat_map
    (fun (e : Corpus.entry) ->
      [
        auto_golden_line e.Corpus.id "conforming" e.Corpus.conforming;
        auto_golden_line e.Corpus.id "violating" e.Corpus.violating;
      ])
    Corpus.all

let test_auto_golden () =
  let expected =
    In_channel.with_open_text "octagon_auto.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "octagon_auto.golden" expected (auto_golden_lines ())

(* --domain interval must not change any bound: compare against a default
   analyze call on every corpus conforming scenario. *)
let test_interval_domain_identity () =
  List.iter
    (fun (e : Corpus.entry) ->
      let s = e.Corpus.conforming in
      let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
      let annot = s.Corpus.annotations program in
      match Analyzer.analyze ~hw:s.Corpus.hw ~annot program with
      | exception Analyzer.Analysis_failed _ -> ()
      | default -> (
        match
          Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Analysis.Interval program
        with
        | explicit ->
          Alcotest.(check int)
            (e.Corpus.id ^ ": interval domain bit-identical bound")
            default.Analyzer.wcet explicit.Analyzer.wcet;
          Alcotest.(check bool)
            (e.Corpus.id ^ ": interval domain never escalates")
            true (explicit.Analyzer.escalation = None)
        | exception Analyzer.Analysis_failed _ ->
          Alcotest.fail (e.Corpus.id ^ ": explicit interval domain failed")))
    Corpus.all

let () =
  Alcotest.run "octagon"
    [
      ( "dbm",
        [
          Alcotest.test_case "closure laws" `Quick test_closure_laws;
          Alcotest.test_case "join meet lattice" `Quick test_join_meet_lattice;
          Alcotest.test_case "bottom propagation" `Quick test_bottom_propagation;
          Alcotest.test_case "random closure soundness" `Quick test_random_closure_soundness;
          Alcotest.test_case "widening termination" `Quick test_widening_termination;
          Alcotest.test_case "in-place matches persistent" `Quick test_in_place_matches_persistent;
          Alcotest.test_case "in-place allocation" `Quick test_in_place_allocation;
          Alcotest.test_case "matches full-matrix oracle" `Quick test_matches_full_matrix_oracle;
          Alcotest.test_case "top variables are inert" `Quick test_top_variables_are_inert;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "below interval on corpus" `Quick test_escalation_below_interval;
          Alcotest.test_case "tracks named registers" `Quick
            test_escalation_tracks_named_registers;
          Alcotest.test_case "A0505 discharged" `Quick test_a0505_discharged;
          Alcotest.test_case "A0509 discharged" `Quick test_a0509_discharged;
          Alcotest.test_case "escalated bound sound" `Quick test_escalated_bound_sound;
          Alcotest.test_case "paranoid corpus" `Quick test_value_paranoid_corpus;
          Alcotest.test_case "interval identity" `Quick test_interval_domain_identity;
          Alcotest.test_case "auto golden" `Quick test_auto_golden;
        ] );
    ]
