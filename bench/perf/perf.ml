(* perf.exe: the repository benchmark.

     perf.exe run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                  [--smoke] [--out FILE]
     perf.exe ledger --out FILE [--rev REV] RESULTS.jsonl...
     perf.exe diff OLD NEW
     perf.exe selftest

   Run it from the repository root (bench/perf/run.sh builds and does
   so); README.md in this directory describes the workloads, the metrics
   and the ledger. *)

module Json = Nakamoto_campaign.Json

(* The CLI under test, as dune builds it from the repository root. *)
let exe = "_build/default/bin/main.exe"
let work_root = ".perf"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

let mkdir_p p = if not (Sys.file_exists p) then Unix.mkdir p 0o755

let work_dir name =
  mkdir_p work_root;
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let check_exe () =
  if not (Sys.file_exists exe) then
    die "%s not found: build it with `dune build bin/main.exe`" exe

(* {1 run} *)

let result_json ~trace (r : Workload.result) =
  let names, source =
    if trace then (Metrics.per_layer, r.layers) else (Metrics.end_to_end, r.e2e)
  in
  let metric (name, unit) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
      (Metrics.number (Option.value (List.assoc_opt name source) ~default:0.))
      unit
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (r.errors = []) r.attempted r.failed
    (String.concat "," (List.map metric names))

let report ~workload ~seed ~trace (r : Workload.result) =
  Printf.printf "%s (seed %d%s): %d units, %d failed\n" workload seed
    (if trace then ", traced" else "")
    r.attempted r.failed;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name (if trace then r.layers else r.e2e) with
      | Some v -> Printf.printf "  %-30s %14.6g %s\n" name v unit
      | None -> ())
    (if trace then Metrics.per_layer else Metrics.end_to_end);
  List.iteri
    (fun i e -> if i < 20 then prerr_endline ("perf: " ^ workload ^ ": " ^ e))
    r.errors

let run_cmd args =
  let workloads = ref [] and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and smoke = ref false and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w Metrics.workloads) then die "unknown workload %s" w;
      workloads := !workloads @ [ w ];
      parse rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some n -> n | None -> die "bad --seed %s" n);
      parse rest
    | "--seconds" :: s :: rest ->
      seconds :=
        (match float_of_string_opt s with
        | Some s when s > 0. -> s
        | _ -> die "bad --seconds %s" s);
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | a :: _ -> die "unexpected argument %s" a
  in
  parse args;
  check_exe ();
  let workloads = if !workloads = [] then Metrics.workloads else !workloads in
  (* --smoke: every workload at 1% of its size, every check kept. *)
  let size = !seconds /. 10. *. if !smoke then 0.01 else 1. in
  (* A hung child must not hang the run: each workload gives up well
     inside the benchmark's 180 s limit. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perf: watchdog expired";
         exit 3));
  let all_ok =
    List.fold_left
      (fun ok workload ->
        ignore (Unix.alarm (int_of_float (170. *. Float.max 1. (!seconds /. 10.))));
        let dir = work_dir workload in
        at_exit (fun () -> rm_rf dir);
        let ctx = { Workload.exe; seed = !seed; size; trace = !trace; dir } in
        let r =
          try Workload.run ctx workload with
          | e ->
            {
              Workload.attempted = 1;
              failed = 1;
              errors = [ Printexc.to_string e ];
              e2e = [];
              layers = [];
            }
        in
        Proc.stop_all ();
        if !trace then begin
          let traces = Filename.concat work_root "trace" in
          mkdir_p traces;
          Tracer.write
            ~path:(Filename.concat traces (Printf.sprintf "%s-seed%d.jsonl" workload !seed))
        end;
        rm_rf dir;
        report ~workload ~seed:!seed ~trace:!trace r;
        let json = result_json ~trace:!trace r in
        Option.iter
          (fun f ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
            Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\"seconds\":%s,\"trace\":%b,%s\n"
              workload !seed (Metrics.number !seconds) !trace
              (String.sub json 1 (String.length json - 1));
            close_out oc)
          !out;
        print_endline json;
        ok && r.errors = [])
      true workloads
  in
  exit (if all_ok then 0 else 1)

(* {1 ledger} *)

type row = {
  workload : string;
  layer : string;
  metric : string;
  unit : string;
  median : float;
  q1 : float;
  q3 : float;
  runs : int;
}

let read_lines path =
  match Check.read_file path with
  | Error e -> die "%s" e
  | Ok s -> List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

(* /proc files report length 0, so read them line by line. *)
let machine () =
  let model =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l -> (
          match String.index_opt l ':' with
          | Some i when String.trim (String.sub l 0 i) = "model name" ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  Printf.sprintf "%s, %d cores" (Option.value model ~default:"unknown cpu")
    (Domain.recommended_domain_count ())

let row_json r =
  Printf.sprintf
    "{\"workload\":%S,\"layer\":%S,\"metric\":%S,\"unit\":%S,\"median\":%s,\"q1\":%s,\"q3\":%s,\"runs\":%d}"
    r.workload r.layer r.metric r.unit (Metrics.number r.median) (Metrics.number r.q1)
    (Metrics.number r.q3) r.runs

(* Median and quartiles over the result records of each workload: the
   untraced runs give the end-to-end rows, the traced runs the per-layer
   rows. *)
let ledger_cmd args =
  let out = ref None and rev = ref "unknown" and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--rev" :: r :: rest -> rev := r; parse rest
    | f :: rest -> files := !files @ [ f ]; parse rest
  in
  parse args;
  let out = match !out with Some o -> o | None -> die "ledger needs --out FILE" in
  let records = List.concat_map (fun f -> List.map Json.parse (read_lines f)) !files in
  let get j k = Json.member j k in
  List.iter
    (fun j ->
      if get j "correct" <> Json.Bool true then
        die "a run of %s (seed %d) failed its checks; no ledger from it"
          (Json.to_string (get j "workload")) (Json.to_int (get j "seed")))
    records;
  let seconds =
    match records with [] -> die "no result records" | j :: _ -> Json.to_float (get j "seconds")
  in
  let rows =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun (traced, metrics) ->
            let rs =
              List.filter
                (fun j ->
                  Json.to_string (get j "workload") = workload
                  && get j "trace" = Json.Bool traced)
                records
            in
            if rs = [] then []
            else
              List.map
                (fun (metric, unit) ->
                  let vals =
                    List.map
                      (fun j -> Json.to_float (get (get (get j "metrics") metric) "value"))
                      rs
                  in
                  let q1, q3 = Stats.quartiles vals in
                  {
                    workload;
                    layer =
                      (if traced then Option.get (Tracer.layer_of metric) else "end_to_end");
                    metric;
                    unit;
                    median = Stats.median vals;
                    q1;
                    q3;
                    runs = List.length vals;
                  })
                metrics)
          [ (false, Metrics.end_to_end); (true, Metrics.per_layer) ])
      Metrics.workloads
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\"schema\":\"perf-ledger/1\",\"rev\":%S,\"machine\":%S,\"seconds\":%s,\"rows\":[\n%s\n]}\n"
    !rev (machine ()) (Metrics.number seconds)
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  Printf.printf "ledger: %d rows from %d runs -> %s\n" (List.length rows) (List.length records) out

(* {1 diff} *)

let load_rows path =
  match Check.read_file path with
  | Error e -> die "%s" e
  | Ok s ->
    let j = try Json.parse s with Json.Malformed m -> die "%s: %s" path m in
    List.map
      (fun r ->
        let s k = Json.to_string (Json.member r k) and f k = Json.to_float (Json.member r k) in
        {
          workload = s "workload";
          layer = s "layer";
          metric = s "metric";
          unit = s "unit";
          median = f "median";
          q1 = f "q1";
          q3 = f "q3";
          runs = Json.to_int (Json.member r "runs");
        })
      (Json.to_list (Json.member j "rows"))

(* Each (end-to-end metric, workload): worse or improved when the medians
   differ by more than the metric's bound, unresolved when either side's
   quartile spread exceeds the bound.  Per-layer rows have no bound and
   are listed as changes only.  Exits 1 when anything got worse. *)
let diff_cmd = function
  | [ old_path; new_path ] ->
    let _, bounds, _ = match Metrics.load_benchmark () with Ok v -> v | Error e -> die "%s" e in
    let old_rows = load_rows old_path and new_rows = load_rows new_path in
    let find rows w m = List.find_opt (fun r -> r.workload = w && r.metric = m) rows in
    let spread r = (r.q3 -. r.q1) /. Float.abs r.median in
    let worse = ref 0 in
    Printf.printf "%-18s %-16s %14s %14s %8s  %s\n" "workload" "metric" "old" "new" "change" "verdict";
    List.iter
      (fun w ->
        List.iter
          (fun (b : Metrics.bound) ->
            match (find old_rows w b.name, find new_rows w b.name) with
            | Some o, Some n ->
              let rel = (n.median -. o.median) /. Float.abs o.median in
              let worsening = if b.better = "lower" then rel else -.rel in
              let verdict =
                if spread o > b.bound || spread n > b.bound then "unresolved"
                else if worsening > b.bound then (incr worse; "worse")
                else if -.worsening > b.bound then "improved"
                else "unchanged"
              in
              Printf.printf "%-18s %-16s %14.6g %14.6g %+7.1f%%  %s (bound %g%%)\n" w b.name
                o.median n.median (100. *. rel) verdict (100. *. b.bound)
            | _ -> Printf.printf "%-18s %-16s %14s %14s %8s  missing\n" w b.name "-" "-" "-")
          bounds)
      Metrics.workloads;
    print_endline "\nper-layer (traced runs, no bound):";
    List.iter
      (fun n ->
        if n.layer <> "end_to_end" then
          match find old_rows n.workload n.metric with
          | Some o when o.median <> 0. || n.median <> 0. ->
            Printf.printf "%-18s %-30s %14.6g %14.6g %s\n" n.workload n.metric o.median n.median
              (if o.median = 0. then "new"
               else Printf.sprintf "%+.1f%%" (100. *. (n.median -. o.median) /. Float.abs o.median))
          | _ -> ())
      new_rows;
    exit (if !worse > 0 then 1 else 0)
  | _ -> die "usage: perf.exe diff OLD NEW"

(* {1 selftest} *)

(* Swap one character for a different one of the same class. *)
let alter s i =
  let b = Bytes.of_string s in
  let c = s.[i] in
  Bytes.set b i
    (match c with
    | '0' .. '8' -> Char.chr (Char.code c + 1)
    | '9' -> '0'
    | _ -> Char.chr (Char.code c lxor 1));
  Bytes.to_string b

let replace_value s ~key ~by =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length s then None
    else if String.sub s i (String.length pat) = pat then Some (i + String.length pat)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some v ->
    let stop =
      match List.filter_map (fun c -> String.index_from_opt s (v + 1) c) [ ','; '}' ] with
      | [] -> String.length s
      | l -> List.fold_left min max_int l
    in
    Some (String.sub s 0 v ^ by ^ String.sub s stop (String.length s - stop))

let selftest_cmd args =
  if args <> [] then die "usage: perf.exe selftest";
  check_exe ();
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "  %-58s %s\n" what (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  let dir = work_dir "selftest" in
  let ctx = { Workload.exe; seed = 1; size = 0.; trace = false; dir } in
  (* BENCHMARK.json lists what this program measures. *)
  (match Metrics.load_benchmark () with
  | Error e -> expect ("BENCHMARK.json readable: " ^ e) false
  | Ok (ws, e2e, pl) ->
    let pairs = List.map (fun (b : Metrics.bound) -> (b.name, b.unit)) in
    expect "BENCHMARK.json names perf.exe's workloads" (ws = Metrics.workloads);
    expect "BENCHMARK.json names the end-to-end metrics" (pairs e2e = Metrics.end_to_end);
    expect "BENCHMARK.json names the per-layer metrics" (pairs pl = Metrics.per_layer));
  (* A genuine verdict line passes; a tampered one is caught. *)
  let q = (Gen.settle_queries ~seed:1 ~count:3).(1) in
  let a = Workload.start_assess ctx in
  Proc.write_line a.input (Workload.query_line q);
  let raw = Option.value (Proc.read_line a.output) ~default:"" in
  Workload.stop_assess a;
  let verdict s = Check.verdict ~line:2 ~oracle:q s in
  expect "genuine verdict line passes the verdict check" (verdict raw = Ok ());
  List.iter
    (fun (key, by) ->
      match replace_value raw ~key ~by with
      | None -> expect (Printf.sprintf "verdict line has a %s field" key) false
      | Some tampered ->
        expect (Printf.sprintf "tampered %s is caught" key) (Result.is_error (verdict tampered)))
    [ ("zone", {|"BROKEN"|}); ("confirmations", "1") ];
  (* A genuine journal passes; every one-byte alteration tried is caught. *)
  let spec = Gen.serve_spec ~seed:7L ~trials:3 in
  let run = Workload.run_campaign ctx ~jobs:2 spec ~journal:(Filename.concat dir "j.jsonl") in
  let journal = Result.value (Check.read_file run.journal) ~default:"" in
  let expected =
    Result.value (Check.oracle_journal spec ~path:(Filename.concat dir "o.jsonl")) ~default:""
  in
  let journal_ok s =
    Result.is_ok (Check.journal_shape spec s) && Result.is_ok (Check.identical ~expected s)
  in
  expect "genuine journal passes the journal checks" (journal <> "" && journal_ok journal);
  let len = String.length journal in
  let positions = List.init 16 (fun k -> (k * len / 16) + 7) in
  expect "every one-byte alteration of the journal is caught"
    (len > 0 && List.for_all (fun i -> not (journal_ok (alter journal (min i (len - 1))))) positions);
  (match replace_value journal ~key:"fingerprint" ~by:{|"1"|} with
  | Some tampered ->
    expect "a foreign fingerprint fails the shape check"
      (Result.is_error (Check.journal_shape spec tampered))
  | None -> expect "journal header has a fingerprint" false);
  rm_rf dir;
  if !failures = 0 then print_endline "selftest OK"
  else Printf.printf "selftest: %d check(s) failed\n" !failures;
  exit (if !failures = 0 then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Stopped from outside, still stop and reap every child. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit Proc.stop_all;
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "ledger" :: args -> ledger_cmd args
  | "diff" :: args -> diff_cmd args
  | "selftest" :: args -> selftest_cmd args
  | _ -> die "usage: perf.exe (run | ledger | diff | selftest) ..."
