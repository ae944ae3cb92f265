type entry = {
  round : int;
  honest_blocks : int;
  adversary_blocks : int;
  releases : int;
  best_height : int;
  reorg_depth : int;
}

type t = { mutable rev_entries : entry list; mutable last_round : int }

let header = "# nakamoto trace v1"
let columns = "round honest_blocks adversary_blocks releases best_height reorg_depth"

let create () = { rev_entries = []; last_round = 0 }

let record t e =
  if e.round <= t.last_round then
    invalid_arg "Trace.record: rounds must be strictly increasing";
  t.rev_entries <- e :: t.rev_entries;
  t.last_round <- e.round

let length t = List.length t.rev_entries
let entries t = List.rev t.rev_entries

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ("# " ^ columns ^ "\n");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %d %d %d\n" e.round e.honest_blocks
           e.adversary_blocks e.releases e.best_height e.reorg_depth))
    (entries t);
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  (match lines with
  | first :: _ when String.trim first = header -> ()
  | _ -> failwith "Trace.of_string: missing v1 header");
  let t = create () in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ a; b; c; d; e; f ] -> (
          match
            ( int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
              int_of_string_opt d, int_of_string_opt e, int_of_string_opt f )
          with
          | Some round, Some hb, Some ab, Some rel, Some bh, Some rd ->
            if round <= t.last_round then
              failwith
                (Printf.sprintf
                   "Trace.of_string: rounds must be strictly increasing \
                    (line %d)"
                   (lineno + 1));
            record t
              {
                round;
                honest_blocks = hb;
                adversary_blocks = ab;
                releases = rel;
                best_height = bh;
                reorg_depth = rd;
              }
          | _ ->
            failwith
              (Printf.sprintf "Trace.of_string: non-numeric field on line %d"
                 (lineno + 1)))
        | _ ->
          failwith
            (Printf.sprintf "Trace.of_string: expected 6 fields on line %d"
               (lineno + 1))
      end)
    lines;
  t

let equal a b = entries a = entries b

let digest t =
  let mix = Nakamoto_prob.Rng.splitmix64 in
  let feed acc v = mix (Int64.add acc (Int64.of_int v)) in
  List.fold_left
    (fun acc e ->
      let acc = feed acc e.round in
      let acc = feed acc e.honest_blocks in
      let acc = feed acc e.adversary_blocks in
      let acc = feed acc e.releases in
      let acc = feed acc e.best_height in
      feed acc e.reorg_depth)
    (mix 0x9e3779b97f4a7c15L) (entries t)

let capture config =
  let t = create () in
  let on_round (r : Execution.round_report) =
    record t
      {
        round = r.round_number;
        honest_blocks = r.honest_mined;
        adversary_blocks = r.adversary_successes;
        releases = r.releases_issued;
        best_height = r.best_height;
        reorg_depth = r.reorg_depth;
      }
  in
  ignore (Execution.run ~on_round config);
  t

let summarize t =
  let es = entries t in
  let total f = List.fold_left (fun acc e -> acc + f e) 0 es in
  let maxi f = List.fold_left (fun acc e -> max acc (f e)) 0 es in
  Printf.sprintf
    "%d rounds: %d honest blocks, %d adversarial successes, %d releases, \
     final height %d, deepest reorg %d"
    (length t)
    (total (fun e -> e.honest_blocks))
    (total (fun e -> e.adversary_blocks))
    (total (fun e -> e.releases))
    (maxi (fun e -> e.best_height))
    (maxi (fun e -> e.reorg_depth))
