(* Correctness checks on what the program printed and wrote.  They run
   after the timed region; each returns [Error reason] instead of
   raising, and every error counts as a failed unit. *)

module Core = Nakamoto_core
module Json = Nakamoto_campaign.Json
module Spec = Nakamoto_campaign.Spec
module Journal = Nakamoto_campaign.Journal
module Campaign = Nakamoto_campaign.Campaign

let ( let* ) = Result.bind

let guard what f =
  match f () with
  | v -> Ok v
  | exception Json.Malformed m -> Error (what ^ ": " ^ m)
  | exception Failure m -> Error (what ^ ": " ^ m)
  | exception Invalid_argument m -> Error (what ^ ": " ^ m)

let field j k f = Option.map f (Json.member_opt j k)

(* One [assess --stdin-jsonl] verdict line.  Every line must be an ok
   record carrying its input line number; with [oracle] its zone,
   confirmations and conf_reason must also equal the in-process
   [Assessment.assess] of the same parameters. *)
let verdict ~line ?oracle raw =
  let* j = guard "verdict" (fun () -> Json.parse raw) in
  let* ok, got_line, zone, confs, reason =
    guard "verdict" (fun () ->
        ( Json.member j "ok",
          Json.to_int (Json.member j "line"),
          field j "zone" Json.to_string,
          field j "confirmations" Json.to_int,
          field j "conf_reason" Json.to_string ))
  in
  if ok <> Json.Bool true then Error (Printf.sprintf "line %d: not ok: %s" line raw)
  else if got_line <> line then
    Error (Printf.sprintf "line %d: reply carries line %d" line got_line)
  else
    match oracle with
    | None -> Ok ()
    | Some params ->
      let v = Core.Assessment.verdict_of (Core.Assessment.assess params) in
      let want_zone = Core.Assessment.zone_to_string v.Core.Assessment.v_zone in
      if zone <> Some want_zone then
        Error (Printf.sprintf "line %d: zone %s, expected %s" line
                 (Option.value zone ~default:"-") want_zone)
      else if confs <> v.v_confirmations then
        Error (Printf.sprintf "line %d: confirmations differ from in-process" line)
      else if reason <> v.v_conf_reason then
        Error (Printf.sprintf "line %d: conf_reason differs from in-process" line)
      else Ok ()

(* One serve assess RPC reply against the in-process verdict. *)
let rpc_reply ~params (a : Nakamoto_wire.Message.assess_reply) =
  let t = Core.Assessment.assess params in
  let want =
    Option.map
      (fun (c : Core.Confirmation.assessment) -> c.Core.Confirmation.confirmations)
      t.Core.Assessment.confirmations
  in
  if a.a_zone <> Core.Assessment.zone_to_string t.zone then
    Error (Printf.sprintf "rpc zone %s, expected %s" a.a_zone
             (Core.Assessment.zone_to_string t.zone))
  else if a.a_confirmations <> want then Error "rpc confirmations differ"
  else Ok ()

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* A campaign journal's shape: the header names [spec]'s fingerprint and
   grid, then one line per cell in cell order, each with the planned
   trial count. *)
let journal_shape spec contents =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' contents)
  in
  let cells = Spec.cell_count spec in
  let trials = spec.Spec.trials_per_cell in
  match lines with
  | [] -> Error "journal is empty"
  | header :: rest -> (
    let* h = guard "journal header" (fun () -> Journal.parse header) in
    match h with
    | Journal.Cell _ -> Error "journal does not start with a header"
    | Journal.Header h ->
      if h.fingerprint <> Spec.fingerprint spec then
        Error
          (Printf.sprintf "journal fingerprint %Ld, spec %Ld" h.fingerprint
             (Spec.fingerprint spec))
      else if h.cells <> cells || h.trials_per_cell <> trials then
        Error "journal header grid differs from the plan"
      else if List.length rest <> cells then
        Error
          (Printf.sprintf "journal has %d cell lines, plan %d"
             (List.length rest) cells)
      else
        List.fold_left
          (fun acc (i, l) ->
            let* () = acc in
            let* line = guard "journal cell" (fun () -> Journal.parse l) in
            match line with
            | Journal.Cell (c, s) when c.Spec.index = i ->
              if s.Nakamoto_campaign.Aggregate.s_trials = trials then Ok ()
              else
                Error
                  (Printf.sprintf "cell %d has %d trials, plan %d" i
                     s.s_trials trials)
            | _ -> Error (Printf.sprintf "journal line %d is not cell %d" (i + 2) i))
          (Ok ())
          (List.mapi (fun i l -> (i, l)) rest))

(* Byte identity with the in-process oracle journal. *)
let identical ~expected actual =
  if String.equal expected actual then Ok ()
  else
    let n = min (String.length expected) (String.length actual) in
    let rec first i = if i < n && expected.[i] = actual.[i] then first (i + 1) else i in
    Error
      (Printf.sprintf "journal differs from the in-process run at byte %d"
         (first 0))

(* The determinism oracle: the same spec run in this process on one
   domain, journaled to [path]. *)
let oracle_journal spec ~path =
  ignore
    (Campaign.run ~jobs:1 ~journal_path:path ~log:ignore spec
      : Campaign.outcome);
  read_file path
