(* Small fixed-size domain pool for coarse-grained fan-out (histogram shards,
   corpus entries).

   Tasks are indices 0..n-1 pulled from a mutex-protected counter; every
   worker writes its results into a slot of a shared array, so collection
   order — and therefore every downstream artifact — is deterministic and
   independent of the domain count. Exceptions are captured per-task and the
   first one (in task order) is re-raised on the caller's domain. Callers
   fan out once, at the outermost level: a task that calls [map] again
   spawns domains of its own. *)

let max_domains = 64

(* PAR_DOMAINS=1 forces serial execution; unset picks the hardware count. *)
let default_domains () =
  match Sys.getenv_opt "PAR_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> min d max_domains
    | Some _ | None -> 1)
  | None -> min (Domain.recommended_domain_count ()) max_domains

let map ?domains n f =
  if n < 0 then invalid_arg "Parallel.map: negative task count";
  let d = match domains with Some d -> max 1 d | None -> default_domains () in
  let d = min d n in
  if n = 0 then [||]
  else if d <= 1 then Array.init n f
  else begin
    let results : ('a, exn) Result.t option array = Array.make n None in
    let next = ref 0 in
    let lock = Mutex.create () in
    let take () =
      Mutex.lock lock;
      let i = !next in
      if i < n then incr next;
      Mutex.unlock lock;
      if i < n then Some i else None
    in
    let worker () =
      let rec loop () =
        match take () with
        | None -> ()
        | Some i ->
          results.(i) <- Some (try Ok (f i) with e -> Error e);
          loop ()
      in
      loop ()
    in
    let spawned = List.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let map_list ?domains f xs =
  let arr = Array.of_list xs in
  Array.to_list (map ?domains (Array.length arr) (fun i -> f arr.(i)))
