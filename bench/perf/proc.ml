(* Child processes of perf.exe: spawning, line-oriented pipes, peak-RSS
   sampling from /proc, CPU accounting, and the guarantee that every
   child is stopped and reaped before perf.exe exits. *)

type t = {
  name : string;
  pid : int;
  mutable hwm_kb : int;  (** largest VmHWM read so far *)
  mutable status : Unix.process_status option;  (** set once reaped *)
}

let live : t list ref = ref []
let watched : t list ref = ref []

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; O_CLOEXEC ] 0)

(* Every descriptor perf.exe opens is close-on-exec, so a child only
   ever holds the three it is handed; a pipe's EOF then means exactly
   that its one writer exited. *)
let pipe () = Unix.pipe ~cloexec:true ()

let log_file path =
  Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644

let spawn ~name ?stdin ?stdout ?stderr exe args =
  let dn = Lazy.force devnull in
  let pick = Option.value ~default:dn in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      (pick stdin) (pick stdout) (pick stderr)
  in
  let t = { name; pid; hwm_kb = 0; status = None } in
  live := t :: !live;
  t

let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l -> (
        match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
        | Some kb -> Some kb
        | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* A zombie has no VmHWM line, so sampling after exit keeps the last
   reading. *)
let sample t =
  if t.status = None then
    Option.iter (fun kb -> t.hwm_kb <- max t.hwm_kb kb) (vm_hwm_kb t.pid)

let hwm_mib t = float_of_int t.hwm_kb /. 1024.

let rec wait t =
  match t.status with
  | Some s -> s
  | None -> (
    match Unix.waitpid [] t.pid with
    | _, s ->
      t.status <- Some s;
      live := List.filter (fun u -> u != t) !live;
      watched := List.filter (fun u -> u != t) !watched;
      s
    | exception Unix.Unix_error (EINTR, _, _) -> wait t)

let signal t s =
  if t.status = None then try Unix.kill t.pid s with Unix.Unix_error _ -> ()

let terminate t =
  signal t Sys.sigterm;
  ignore (wait t)

let stop_all () =
  List.iter (fun t -> signal t Sys.sigkill) !live;
  List.iter (fun t -> ignore (wait t)) !live

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe_status t =
  match t.status with
  | Some (Unix.WEXITED c) -> Printf.sprintf "%s exited %d" t.name c
  | Some (Unix.WSIGNALED s) -> Printf.sprintf "%s killed by signal %d" t.name s
  | Some (Unix.WSTOPPED s) -> Printf.sprintf "%s stopped by signal %d" t.name s
  | None -> Printf.sprintf "%s still running" t.name

(* User + system CPU of every reaped child so far. *)
let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.tms_cstime

(* {2 Peak-RSS sampling at 20 Hz}  Processes on the watch list are
   sampled whenever perf.exe's loops call [tick]; [until_tick] bounds
   how long those loops may block. *)

let period = 0.05
let next_tick = ref 0.

let watch t =
  watched := t :: !watched;
  sample t

let tick () =
  let now = Clock.now () in
  if now >= !next_tick then begin
    List.iter sample !watched;
    next_tick := now +. period
  end

let until_tick () = Float.max 0. (!next_tick -. Clock.now ())

(* [Unix.select] with EINTR read as "nothing ready". *)
let select r w timeout =
  match Unix.select r w [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (EINTR, _, _) -> ([], [])

(* Write what the non-blocking [fd] accepts of [s] from offset [off];
   returns the new offset. *)
let write_some fd s off =
  match Unix.write_substring fd s off (min 65536 (String.length s - off)) with
  | k -> off + k
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> off

(* {2 Line reader over a pipe} *)

type reader = {
  fd : Unix.file_descr;
  mutable pending : string;  (** bytes read, not yet returned *)
  mutable pos : int;  (** start of the unreturned part of [pending] *)
  mutable eof : bool;
}

let reader fd = { fd; pending = ""; pos = 0; eof = false }
let chunk = Bytes.create 65536

let fill r =
  match Unix.read r.fd chunk 0 (Bytes.length chunk) with
  | 0 -> r.eof <- true
  | n ->
    r.pending <-
      String.sub r.pending r.pos (String.length r.pending - r.pos)
      ^ Bytes.sub_string chunk 0 n;
    r.pos <- 0
  | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> ()

let pop_line r =
  match String.index_from_opt r.pending r.pos '\n' with
  | None -> None
  | Some i ->
    let l = String.sub r.pending r.pos (i - r.pos) in
    r.pos <- i + 1;
    Some l

let discard r =
  r.pending <- "";
  r.pos <- 0

(* The next line, sampling RSS while waiting; [None] at EOF. *)
let rec read_line r =
  match pop_line r with
  | Some l -> Some l
  | None when r.eof -> None
  | None ->
    if fst (select [ r.fd ] [] (until_tick ())) <> [] then fill r;
    tick ();
    read_line r

let rec drain r =
  if not r.eof then begin
    fill r;
    discard r;
    drain r
  end

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0
