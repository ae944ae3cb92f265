type t = {
  out : out_channel;
  interval : float;
  total_trials : int;
  resumed_trials : int;
  started : float;
  mutable last_report : float;
}

let create ?(out = stderr) ?(interval = 5.) ?(resumed_trials = 0)
    ~total_trials () =
  if total_trials < 0 then invalid_arg "Progress.create: negative total_trials";
  if resumed_trials < 0 || resumed_trials > total_trials then
    invalid_arg "Progress.create: resumed_trials outside [0, total_trials]";
  let now = Unix.gettimeofday () in
  { out; interval; total_trials; resumed_trials; started = now; last_report = now }

let silent () = create ~interval:0. ~total_trials:0 ()

let started t = t.started

(* Only this process's work counts toward throughput: trials recovered
   from a journal cost no wall time here, so they are subtracted before
   dividing — otherwise a resume reports inflated trials/s and an ETA
   that undershoots. *)
let fresh_done t ~trials_done = max 0 (trials_done - t.resumed_trials)

let rate t ~trials_done ~now =
  let dt = now -. t.started in
  if dt <= 0. then 0. else float_of_int (fresh_done t ~trials_done) /. dt

let eta t ~trials_done ~now =
  let remaining = t.total_trials - trials_done in
  if remaining <= 0 then 0.
  else begin
    let r = rate t ~trials_done ~now in
    if r <= 0. then Float.infinity else float_of_int remaining /. r
  end

let print_extra t extra =
  match extra with
  | None -> ()
  | Some f -> (
    match f () with
    | "" -> ()
    | line -> Printf.fprintf t.out "campaign: %s\n%!" line)

let print_line t ~trials_done ~now ~final =
  let r = rate t ~trials_done ~now in
  if final then
    Printf.fprintf t.out "campaign: %d fresh trials in %.1fs (%.2f trials/s)\n%!"
      (fresh_done t ~trials_done)
      (now -. t.started) r
  else begin
    let e = eta t ~trials_done ~now in
    let eta_str = if Float.is_finite e then Printf.sprintf "%.0fs" e else "?" in
    if t.resumed_trials > 0 then
      Printf.fprintf t.out
        "campaign: %d/%d trials (%d resumed; %.2f trials/s, eta %s)\n%!"
        trials_done t.total_trials t.resumed_trials r eta_str
    else
      Printf.fprintf t.out "campaign: %d/%d trials (%.2f trials/s, eta %s)\n%!"
        trials_done t.total_trials r eta_str
  end

let note ?extra t ~trials_done =
  if t.interval > 0. then begin
    let now = Unix.gettimeofday () in
    if now -. t.last_report >= t.interval then begin
      t.last_report <- now;
      print_line t ~trials_done ~now ~final:false;
      print_extra t extra
    end
  end

let finish ?extra t ~trials_done =
  if t.interval > 0. then begin
    print_line t ~trials_done ~now:(Unix.gettimeofday ()) ~final:true;
    print_extra t extra
  end
