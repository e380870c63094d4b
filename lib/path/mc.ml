module Supergraph = Wcet_cfg.Supergraph
module Analysis = Wcet_value.Analysis
module Aval = Wcet_value.Aval
module State = Wcet_value.State

let name = "mc"
let path_sensitive = true
let fact_blind = true
let exact_witness = true

(* Suffix explorations before the backend declares itself intractable;
   memoization makes ordinary mode-structured programs cost O(nodes *
   distinct states). *)
let budget = 200_000

exception Intractable

(* Memo keys: a node and the carried state, compared structurally on the
   canonical triple (registers, tracked memory bindings, register
   origins). *)
module Key = struct
  type t = int * State.t

  let aval_hash = function Aval.Bot -> 1 | Aval.Top -> 2 | Aval.I (lo, hi) -> (lo * 65599) + hi
  let mix h x = (h * 31) + x

  let hash ((v, st) : t) =
    let h = ref v in
    Array.iter (fun a -> h := mix !h (aval_hash a)) st.State.regs;
    State.Addr_map.iter (fun a x -> h := mix (mix !h a) (aval_hash x)) st.State.mem;
    Array.iter (fun o -> h := mix !h (match o with None -> 0 | Some w -> w + 1)) st.State.origins;
    !h land max_int

  let equal ((v1, s1) : t) ((v2, s2) : t) =
    v1 = v2
    && (s1 == s2
       || s1.State.regs = s2.State.regs
          && State.Addr_map.equal Aval.equal s1.State.mem s2.State.mem
          && s1.State.origins = s2.State.origins)
end

module Memo = Hashtbl.Make (Key)

(* The best suffix's first step out of a memoised node: stop there (a
   collapsed loop's terminal, whose counts are given, or an end node), or
   take an edge — its tail counts (non-empty only out of a collapsed loop)
   and the successor's key. *)
type choice = Stop of Forest.counts | Next of Forest.counts * Key.t

let solve (spec : Path_analysis.spec) (loops : Wcet_cfg.Loops.info) =
  try
    let t = Forest.build spec loops in
    let value = spec.Path_analysis.value in
    let graph = value.Analysis.graph in
    let n = Array.length graph.Supergraph.nodes in
    let ctx = Analysis.path_ctx value in
    let visits = ref 0 in
    let memo : (int * choice) option Memo.t = Memo.create 256 in
    (* Crossing a collapsed loop: land on the successor's invariant (the
       merge at the loop head), re-applying only the carried memory facts
       at words the body provably never stores to. A bottom meet means the
       invariant already contradicts a carried fact: the path cannot take
       this exit. *)
    let exit_state (st : State.t) (p : Forest.proxy) y =
      match value.Analysis.node_in.(y) with
      | None -> None
      | Some inv -> (
        match p.Forest.p_writes with
        | Forest.All -> Some inv
        | Forest.Ranges rs ->
          let clobbered a = List.exists (fun (lo, hi) -> a >= lo && a <= hi) rs in
          let exception Contradiction in
          (try
             let mem =
               State.Addr_map.fold
                 (fun a v acc ->
                   if clobbered a then acc
                   else begin
                     let cur =
                       match State.Addr_map.find_opt a acc with
                       | Some x -> x
                       | None -> Aval.top
                     in
                     let m = Aval.meet cur v in
                     if Aval.is_bot m then raise Contradiction
                     else State.Addr_map.add a m acc
                   end)
                 st.State.mem inv.State.mem
             in
             Some { inv with State.mem }
           with Contradiction -> None))
    in
    (* dfs v st = cost of the best suffix from v entered with state st,
       including v's own weight, and its first step; None when the carried
       state proves every continuation infeasible (the prefix cannot
       actually reach v like this). *)
    let rec dfs v (st : State.t) : (int * choice) option =
      incr visits;
      if !visits > budget then raise Intractable;
      let key = (v, st) in
      match Memo.find_opt memo key with
      | Some r -> r
      | None ->
        let best = ref None in
        let consider c choice =
          match !best with Some (c0, _) when c0 >= c -> () | _ -> best := Some (c, choice)
        in
        (match t.Forest.proxy.(v) with
        | Some p ->
          List.iter (fun (tc, tcs) -> consider tc (Stop tcs)) p.Forest.p_terminals;
          if t.Forest.out_edges.(v) = [] && p.Forest.p_terminals = [] then consider 0 (Stop []);
          List.iter
            (fun (e : Forest.edge) ->
              match exit_state st p e.Forest.e_dst with
              | None -> ()
              | Some st' -> (
                match dfs e.Forest.e_dst st' with
                | None -> ()
                | Some (c, _) ->
                  consider (e.Forest.e_w + c) (Next (e.Forest.e_tail, (e.Forest.e_dst, st')))))
            t.Forest.out_edges.(v)
        | None ->
          if t.Forest.out_edges.(v) = [] then consider 0 (Stop [])
          else begin
            let node = graph.Supergraph.nodes.(v) in
            let st_out = Analysis.path_step ctx st node in
            List.iter
              (fun (e : Forest.edge) ->
                match Analysis.path_follow ctx node e.Forest.e_kind st_out with
                | None -> ()
                | Some st' -> (
                  match dfs e.Forest.e_dst st' with
                  | None -> ()
                  | Some (c, _) -> consider (e.Forest.e_w + c) (Next ([], (e.Forest.e_dst, st')))))
              t.Forest.out_edges.(v)
          end);
        let r = Option.map (fun (c, choice) -> (t.Forest.weight.(v) + c, choice)) !best in
        Memo.replace memo key r;
        r
    in
    (* The witness: follow the chosen steps from the entry, adding each
       node's own counts (a collapsed loop's cycle times its bound) and
       each step's tail or terminal counts. *)
    let witness key0 =
      let counts = Array.make n 0 in
      let add cs mult =
        List.iter (fun (v, k) -> if v >= 0 && v < n then counts.(v) <- counts.(v) + (k * mult)) cs
      in
      let rec follow ((v, _) as key) =
        (match t.Forest.proxy.(v) with
        | Some p -> add p.Forest.p_cycle p.Forest.p_bound
        | None -> counts.(v) <- counts.(v) + 1);
        match Memo.find memo key with
        | Some (_, Stop cs) -> add cs 1
        | Some (_, Next (tail, key')) ->
          add tail 1;
          follow key'
        | None -> assert false (* a chosen successor has a feasible suffix *)
      in
      follow key0;
      counts
    in
    match value.Analysis.node_in.(t.Forest.entry) with
    | None -> Error (Path_analysis.internal "entry node unreachable")
    | Some st0 -> (
      match dfs t.Forest.entry st0 with
      | None ->
        Error (Path_analysis.internal "model checking pruned every path from the entry")
      | Some (wcet, _) ->
        let sol = { Path_analysis.wcet; node_counts = witness (t.Forest.entry, st0) } in
        (match Path_analysis.check_identity sol spec.Path_analysis.times with
        | Ok () -> Ok sol
        | Error d ->
          Error
            (Path_analysis.internal
               (Printf.sprintf "mc count/time identity off by %d cycles" d))))
  with
  | Forest.Failed e -> Error e
  | Intractable ->
    Error
      (Path_analysis.intractable
         (Printf.sprintf "path exploration exceeded the %d-suffix budget" budget))
