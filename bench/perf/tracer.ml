(* In-memory spans for the traced replay.  A span records its name, start,
   end, the span it ran inside and the unit of work (query, trial, shard)
   it belongs to.  Names are "layer.what", the layer being the library
   directory of the public function called (core, markov, surface, sim,
   campaign, wire); "unit" spans wrap one unit of work and belong to no
   layer.  Nothing here runs unless --trace 1 is given. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  unit_id : int;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_unit = ref (-1)

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  current_unit := -1

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = Clock.now () in
  let finish () =
    let t1 = Clock.now () in
    stack := List.tl !stack;
    spans := { id; name; parent; unit_id = !current_unit; t0; t1 } :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* One unit of work: its spans share [id] and nest under a "unit" span. *)
let in_unit id f =
  current_unit := id;
  span "unit" f

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> Some (String.sub name 0 i)
  | None -> None

(* Inclusive seconds and call count of every span name. *)
let totals () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let tot, n =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0)
      in
      Hashtbl.replace tbl s.name (tot +. (s.t1 -. s.t0), n + 1))
    !spans;
  tbl

let total name =
  match Hashtbl.find_opt (totals ()) name with Some (t, _) -> t | None -> 0.

(* Sum over layer spans of their self time: duration minus the part of
   it that child spans cover. *)
let layer_self_time () =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          ((s.t1 -. s.t0)
          +. Option.value (Hashtbl.find_opt covered s.parent) ~default:0.))
    !spans;
  List.fold_left
    (fun acc s ->
      if layer_of s.name = None then acc
      else
        acc +. (s.t1 -. s.t0)
        -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.)
    0. !spans

let count () = List.length !spans

(* Cost of recording one span, from a burst of empty ones. *)
let span_cost () =
  let saved = (!spans, !next_id) in
  let n = 20_000 in
  let t0 = Clock.now () in
  for _ = 1 to n do
    span "calibrate" ignore
  done;
  let cost = (Clock.now () -. t0) /. float_of_int n in
  spans := fst saved;
  next_id := snd saved;
  cost

let write ~path =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"unit\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
            s.id s.name s.parent s.unit_id
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. origin) *. 1e6))
        (List.rev !spans))
