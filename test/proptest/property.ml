module Rng = Nakamoto_prob.Rng

type failure = {
  name : string;
  seed : int64;
  path : int list;
  trials_run : int;
  shrink_steps : int;
  original_input : string;
  shrunk_input : string;
  error : string;
}

exception Failed of failure

let default_seed = 42L
let max_shrink_attempts = 1_000

let path_to_string path = String.concat "," (List.map string_of_int path)

(* The command that reruns the running test binary: [dune exec] on its
   source-tree path when it runs from a dune build directory
   ([_build/<context>/<path>]), else the binary itself. *)
let replay_command () =
  let rec source_path = function
    | "_build" :: _context :: (_ :: _ as rest) -> Some (String.concat "/" rest)
    | _ :: rest -> source_path rest
    | [] -> None
  in
  match source_path (String.split_on_char '/' Sys.executable_name) with
  | Some path -> Printf.sprintf "dune exec %s -- test" path
  | None -> Filename.quote Sys.executable_name ^ " test"

let failure_message f =
  Printf.sprintf
    "property '%s' failed\n\
    \  seed=%Ld path=[%s] (trial %d of the run)\n\
    \  original input: %s\n\
    \  shrunk input (%d steps): %s\n\
    \  error: %s\n\
    \  replay: PROPTEST_SEED=%Ld PROPTEST_REPLAY=%s %s"
    f.name f.seed (path_to_string f.path) f.trials_run f.original_input
    f.shrink_steps f.shrunk_input f.error f.seed (path_to_string f.path)
    (replay_command ())

let () =
  Printexc.register_printer (function
    | Failed f -> Some (failure_message f)
    | _ -> None)

(* The per-property stream seed folds the property name into the base
   seed, so two properties sharing a base seed and a trial index still
   draw decorrelated streams.  Replay only needs the base seed and the
   path: the name is re-folded identically on the replay run. *)
let property_seed ~seed ~name =
  let acc = ref (Rng.splitmix64 seed) in
  String.iter
    (fun ch -> acc := Rng.splitmix64 (Int64.add !acc (Int64.of_int (Char.code ch))))
    name;
  !acc

let env_seed () =
  match Sys.getenv_opt "PROPTEST_SEED" with
  | None | Some "" -> None
  | Some s -> (
    match Int64.of_string_opt s with
    | Some v -> Some v
    | None -> invalid_arg "PROPTEST_SEED: not an int64")

let env_trials () =
  match Sys.getenv_opt "PROPTEST_TRIALS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> Some v
    | _ -> invalid_arg "PROPTEST_TRIALS: not a positive int")

let env_replay () =
  match Sys.getenv_opt "PROPTEST_REPLAY" with
  | None | Some "" -> None
  | Some s ->
    Some
      (List.map
         (fun part ->
           match int_of_string_opt (String.trim part) with
           | Some v when v >= 0 -> v
           | _ -> invalid_arg "PROPTEST_REPLAY: not a comma-separated int path")
         (String.split_on_char ',' s))

type 'a outcome = Pass | Fail of 'a * string

let error_to_string = function
  | Failure m -> m
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | e -> Printexc.to_string e

let attempt prop x =
  match prop x with
  | () -> Pass
  | exception e -> Fail (x, error_to_string e)

(* Greedy shrinking: scan the candidate stream for the first value that
   still fails, restart from it, and stop when a whole stream passes or
   the attempt budget runs out.  Every candidate execution (pass or fail)
   costs one attempt, so adversarially wide streams cannot hang a test
   run. *)
let shrink_failure (arb : 'a Arbitrary.t) prop x0 err0 =
  let attempts = ref 0 in
  let steps = ref 0 in
  let cur = ref x0 and err = ref err0 in
  let improved = ref true in
  while !improved && !attempts < max_shrink_attempts do
    improved := false;
    (try
       Seq.iter
         (fun cand ->
           if !attempts >= max_shrink_attempts then raise Exit;
           incr attempts;
           match attempt prop cand with
           | Pass -> ()
           | Fail (x, e) ->
             cur := x;
             err := e;
             incr steps;
             improved := true;
             raise Exit)
         (arb.Arbitrary.shrink !cur)
     with Exit -> ())
  done;
  (!cur, !err, !steps)

let run_path ~seed ~name (arb : 'a Arbitrary.t) prop path =
  let rng = Rng.of_path ~seed:(property_seed ~seed ~name) path in
  attempt prop (arb.Arbitrary.gen rng)

let fail ~seed ~name ~path ~trials_run arb prop x err =
  let shrunk, shrunk_err, steps = shrink_failure arb prop x err in
  raise
    (Failed
       {
         name;
         seed;
         path;
         trials_run;
         shrink_steps = steps;
         original_input = Arbitrary.print arb x;
         shrunk_input = Arbitrary.print arb shrunk;
         error = shrunk_err;
       })

let check ?(count = 100) ?(seed = default_seed) ~name arb prop =
  if count <= 0 then invalid_arg "Property.check: count must be positive";
  let seed = Option.value (env_seed ()) ~default:seed in
  match env_replay () with
  | Some path -> (
    match run_path ~seed ~name arb prop path with
    | Pass -> ()
    | Fail (x, err) -> fail ~seed ~name ~path ~trials_run:1 arb prop x err)
  | None ->
    let count = Option.value (env_trials ()) ~default:count in
    for i = 0 to count - 1 do
      match run_path ~seed ~name arb prop [ i ] with
      | Pass -> ()
      | Fail (x, err) ->
        fail ~seed ~name ~path:[ i ] ~trials_run:(i + 1) arb prop x err
    done

let soak_active () = Option.is_some (env_trials ())
