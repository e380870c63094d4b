type outcome =
  | Bound of { complete : bool; wcet : int }
  | Rejected of string
  | Crashed of string

let pp_outcome ppf = function
  | Bound { complete; wcet } ->
    Format.fprintf ppf "%s bound %d" (if complete then "complete" else "partial") wcet
  | Rejected code -> Format.fprintf ppf "analysis failed (%s)" code
  | Crashed e -> Format.fprintf ppf "crash: %s" e

let errorf fmt = Format.kasprintf (fun s -> Error s) fmt

let sound ~observed = function
  | Bound { complete = true; wcet } when wcet < observed ->
    errorf "complete bound %d is below the simulated %d cycles" wcet observed
  | Bound _ | Rejected _ | Crashed _ -> Ok ()

let same ~what ~first got =
  match got with
  | Crashed _ -> errorf "%a" pp_outcome got
  | _ when got <> first -> errorf "%a differs from %s %a" pp_outcome got what pp_outcome first
  | _ -> Ok ()

let corpus ~expected ~sim_max got =
  match same ~what:"the first op's" ~first:expected got with
  | Error _ as e -> e
  | Ok () -> (
    match sim_max with None -> Ok () | Some observed -> sound ~observed got)

let revisit ~first got = same ~what:"the version's first" ~first got

let version ~cold ~sim_cycles got =
  match same ~what:"the cold cache-off" ~first:cold got with
  | Error _ as e -> e
  | Ok () -> sound ~observed:sim_cycles got

let histogram ~reference got =
  if got = reference then Ok () else Error "histogram differs from the 1-domain reference"
