let protocol_version = 3
let min_protocol_version = 3
let default_max_payload = 8 * 1024 * 1024

type result =
  [ `Frame of int * string | `Eof | `Timeout | `Bad of string ]

(* ------------------------------------------------------------------ *)
(* Incremental decoder: shared by the blocking reader and the          *)
(* coordinator's select loop                                           *)
(* ------------------------------------------------------------------ *)

module Decoder = struct
  type t = {
    max_payload : int;
    buf : Buffer.t;
    mutable consumed : int;  (** bytes of [buf] already handed out *)
    mutable poison : string option;
  }

  let create ?(max_payload = default_max_payload) () =
    { max_payload; buf = Buffer.create 4096; consumed = 0; poison = None }

  let feed t s = if t.poison = None then Buffer.add_string t.buf s

  (* Compact once the consumed prefix dominates, so long-lived
     connections don't grow the buffer without bound. *)
  let compact t =
    let len = Buffer.length t.buf in
    if t.consumed > 0 && (t.consumed = len || t.consumed > 65536) then begin
      let rest = Buffer.sub t.buf t.consumed (len - t.consumed) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.consumed <- 0
    end

  let available t = Buffer.length t.buf - t.consumed

  let u32_be t off =
    let b i = Char.code (Buffer.nth t.buf (t.consumed + off + i)) in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

  let next t =
    match t.poison with
    | Some msg -> `Bad msg
    | None ->
      if available t < 4 then (compact t; `Awaiting)
      else begin
        let len = u32_be t 0 in
        if len < 1 || len > t.max_payload + 1 then begin
          let msg =
            Printf.sprintf
              "frame length %d outside [1, %d] (max-frame cap)" len
              (t.max_payload + 1)
          in
          t.poison <- Some msg;
          `Bad msg
        end
        else if available t < 4 + len then (compact t; `Awaiting)
        else begin
          let tag = Char.code (Buffer.nth t.buf (t.consumed + 4)) in
          let payload = Buffer.sub t.buf (t.consumed + 5) (len - 1) in
          t.consumed <- t.consumed + 4 + len;
          compact t;
          `Frame (tag, payload)
        end
      end
end

(* ------------------------------------------------------------------ *)
(* Encoding, blocking write / read                                     *)
(* ------------------------------------------------------------------ *)

let encode ?(max_payload = default_max_payload) ~tag ~payload () =
  if tag < 0 || tag > 255 then
    invalid_arg "Frame.encode: tag outside [0, 255]";
  if String.length payload > max_payload then
    invalid_arg "Frame.encode: payload exceeds the max-frame cap";
  let len = String.length payload + 1 in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.set b 4 (Char.chr tag);
  Bytes.blit_string payload 0 b 5 (String.length payload);
  Bytes.to_string b

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done

let write ?max_payload fd ~tag ~payload =
  write_all fd (encode ?max_payload ~tag ~payload ())

(* Wait for readability until [deadline] (absolute, None = forever).
   Returns false on timeout. *)
let wait_readable fd deadline =
  let rec go () =
    let remaining =
      match deadline with
      | None -> -1.
      | Some d -> d -. Unix.gettimeofday ()
    in
    if deadline <> None && remaining <= 0. then false
    else begin
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> deadline = None && go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ()

module Channel = struct
  type t = {
    ch_fd : Unix.file_descr;
    ch_max_payload : int;
    dec : Decoder.t;
    chunk : Bytes.t;
  }

  let of_fd ?(max_payload = default_max_payload) fd =
    {
      ch_fd = fd;
      ch_max_payload = max_payload;
      dec = Decoder.create ~max_payload ();
      chunk = Bytes.create 65536;
    }

  let fd t = t.ch_fd

  (* The channel's own cap governs both directions: a channel created to
     read oversized frames must be able to write them too. *)
  let write t ~tag ~payload =
    write ~max_payload:t.ch_max_payload t.ch_fd ~tag ~payload

  let read ?timeout t : result =
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
    let rec go () =
      match Decoder.next t.dec with
      | `Frame (tag, payload) -> `Frame (tag, payload)
      | `Bad msg -> `Bad msg
      | `Awaiting ->
        if not (wait_readable t.ch_fd deadline) then `Timeout
        else begin
          match Unix.read t.ch_fd t.chunk 0 (Bytes.length t.chunk) with
          | 0 ->
            if Decoder.available t.dec > 0 then
              `Bad "truncated frame: EOF mid-frame"
            else `Eof
          | n ->
            Decoder.feed t.dec (Bytes.sub_string t.chunk 0 n);
            go ()
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
            go ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            if Decoder.available t.dec > 0 then
              `Bad "truncated frame: connection reset"
            else `Eof
        end
    in
    go ()
end
