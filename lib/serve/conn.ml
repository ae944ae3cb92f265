module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* Every peer of a socket protocol must survive the other end dying
   mid-write, but the disposition is process-global state: install it
   exactly once instead of re-issuing the syscall on every dial. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let ignore_sigpipe () = Lazy.force sigpipe_ignored

let sockaddr_of = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] -> failwith (Printf.sprintf "no address found for host %s" host)
        | addrs -> addrs.(0)
        | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %s" host))
    in
    Unix.ADDR_INET (ip, port)

let socket_domain = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let connect ~addr ~timeout =
  ignore_sigpipe ();
  let sockaddr = sockaddr_of addr in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let fd = Unix.socket (socket_domain addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () ->
      (match addr with
      | Tcp _ -> (
        (* Lease grants and pings are latency-bound small frames. *)
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ())
      | Unix_path _ -> ());
      fd
    | exception
        Unix.Unix_error
          ( ( Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN | Unix.EINTR
            | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH ),
            _, _ )
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.05;
      go ()
    | exception e ->
      Unix.close fd;
      raise e
  in
  go ()

let handshake ?(timeout = 10.) ~role ch =
  Msg.send ch (Msg.Hello { version = Frame.protocol_version; role });
  match Msg.recv ~timeout ch with
  | `Msg (Msg.Hello_ack { version; telemetry })
    when version >= Frame.min_protocol_version
         && version <= Frame.protocol_version ->
    Ok telemetry
  | `Msg (Msg.Hello_ack { version; _ }) ->
    Result.Error
      (Printf.sprintf
         "server speaks protocol %d, this peer accepts [%d, %d]" version
         Frame.min_protocol_version Frame.protocol_version)
  | `Msg (Msg.Error e) -> Result.Error e
  | `Msg _ -> Result.Error "unexpected reply to hello"
  | `Eof -> Result.Error "server closed the connection during handshake"
  | `Timeout -> Result.Error "handshake timed out"
  | `Bad m -> Result.Error m

let establish ~addr ~timeout ~role =
  (* One budget for the whole dial: connect retries eat into the time
     the handshake recv has left, with a one-second floor so a connect
     that lands at the wire gets a typed refusal instead of a spurious
     timeout. *)
  let deadline = Unix.gettimeofday () +. timeout in
  let fd = connect ~addr ~timeout in
  let ch = Frame.Channel.of_fd fd in
  let remaining = Float.max 1. (deadline -. Unix.gettimeofday ()) in
  match handshake ~timeout:remaining ~role ch with
  | Ok telemetry -> Ok (ch, telemetry)
  | Result.Error e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Result.Error e
