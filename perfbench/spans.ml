module Trace = Wcet_obs.Trace

type t = { self : (string, float) Hashtbl.t; total : (string, float) Hashtbl.t }

let create () = { self = Hashtbl.create 16; total = Hashtbl.create 16 }

let bump tbl name ns =
  let v = Hashtbl.find_opt tbl name |> Option.value ~default:0. in
  Hashtbl.replace tbl name (v +. (Int64.to_float ns /. 1e6))

let add t events =
  (* Sorted by domain, then start, parents before children on ties; a
     stack of open spans then meets each span's parent on top. *)
  let evs =
    List.sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare (a.tid, a.start_ns, a.depth) (b.tid, b.start_ns, b.depth))
      events
  in
  let child_ns = Hashtbl.create 16 in
  let stack = ref [] in
  List.iteri
    (fun i (e : Trace.event) ->
      let rec pop () =
        match !stack with
        | (_, (p : Trace.event)) :: rest when p.tid <> e.tid || p.depth >= e.depth ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (pi, p) :: _ when p.Trace.depth = e.depth - 1 ->
        let c = Hashtbl.find_opt child_ns pi |> Option.value ~default:0L in
        Hashtbl.replace child_ns pi (Int64.add c e.dur_ns)
      | _ -> ());
      stack := (i, e) :: !stack)
    evs;
  List.iteri
    (fun i (e : Trace.event) ->
      let c = Hashtbl.find_opt child_ns i |> Option.value ~default:0L in
      bump t.total e.name e.dur_ns;
      bump t.self e.name (Int64.sub e.dur_ns c))
    evs

let get tbl name = Hashtbl.find_opt tbl name |> Option.value ~default:0.
let self_ms t = get t.self
let total_ms t = get t.total
let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.total [] |> List.sort compare
