module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message

let with_conn ~addr ~connect_timeout ~role f =
  match Conn.establish ~addr ~timeout:connect_timeout ~role with
  | Error e -> Error ("handshake failed: " ^ e)
  | Ok (ch, _telemetry) ->
    Fun.protect
      ~finally:(fun () ->
        try Unix.close (Frame.Channel.fd ch) with Unix.Unix_error _ -> ())
      (fun () -> f ch)

let submit ~addr ?(connect_timeout = 10.) ?journal ?(resume = false)
    ?(on_progress = fun _ -> ()) spec =
  with_conn ~addr ~connect_timeout ~role:Msg.Client (fun ch ->
      Msg.send ch
        (Msg.Submit_campaign
           { Msg.sub_spec = spec; sub_journal = journal; sub_resume = resume });
      let rec wait () =
        match Msg.recv ch with
        | `Msg (Msg.Progress p) ->
          on_progress p;
          wait ()
        | `Msg (Msg.Ping { nonce }) ->
          Msg.send ch (Msg.Pong { nonce });
          wait ()
        | `Msg (Msg.Done { table; journal }) -> Ok (table, journal)
        | `Msg (Msg.Error e) -> Error e
        | `Msg _ -> Error "unexpected message from the coordinator"
        | `Eof -> Error "coordinator closed the connection mid-campaign"
        | `Timeout -> wait ()
        | `Bad m -> Error ("protocol error: " ^ m)
      in
      wait ())

let assess ~addr ?(connect_timeout = 10.) ~nu ~c ~n ~delta () =
  with_conn ~addr ~connect_timeout ~role:Msg.Client (fun ch ->
      Msg.send ch
        (Msg.Query_assess { Msg.q_nu = nu; q_c = c; q_n = n; q_delta = delta });
      let rec wait () =
        match Msg.recv ~timeout:30. ch with
        | `Msg (Msg.Assess_reply a) -> Ok a
        | `Msg (Msg.Ping { nonce }) ->
          Msg.send ch (Msg.Pong { nonce });
          wait ()
        | `Msg (Msg.Error e) -> Error e
        | `Msg _ -> Error "unexpected message from the coordinator"
        | `Eof -> Error "coordinator closed the connection"
        | `Timeout -> Error "assessment query timed out"
        | `Bad m -> Error ("protocol error: " ^ m)
      in
      wait ())
