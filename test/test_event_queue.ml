open Helpers
module Event_queue = Nakamoto_net.Event_queue

let test_basic_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5 "e";
  Event_queue.push q ~time:1 "a";
  Event_queue.push q ~time:3 "c";
  check_int "length" 3 (Event_queue.length q);
  check_true "peek earliest" (Event_queue.peek_time q = Some 1);
  (match Event_queue.pop q with
  | Some (1, "a") -> ()
  | _ -> Alcotest.fail "expected (1, a)");
  check_true "then 3" (Event_queue.peek_time q = Some 3)

let test_stability () =
  let q = Event_queue.create () in
  List.iteri (fun i s -> Event_queue.push q ~time:(i mod 2) s)
    [ "a0"; "b1"; "c0"; "d1"; "e0" ];
  let t0 = Event_queue.pop_due q ~now:0 in
  Alcotest.(check (list string)) "time-0 events in insertion order"
    [ "a0"; "c0"; "e0" ] t0;
  let t1 = Event_queue.pop_due q ~now:1 in
  Alcotest.(check (list string)) "time-1 events in insertion order"
    [ "b1"; "d1" ] t1

let test_pop_due_threshold () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t t) [ 2; 4; 6; 8 ];
  Alcotest.(check (list int)) "due at 5" [ 2; 4 ] (Event_queue.pop_due q ~now:5);
  check_int "rest remain" 2 (Event_queue.length q);
  Alcotest.(check (list int)) "nothing due at 5 now" []
    (Event_queue.pop_due q ~now:5);
  Alcotest.(check (list int)) "rest due at 100" [ 6; 8 ]
    (Event_queue.pop_due q ~now:100)

let test_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  check_true "empty" (Event_queue.is_empty q);
  check_true "no peek" (Event_queue.peek_time q = None);
  check_true "no pop" (Event_queue.pop q = None);
  check_true "pop_due empty" (Event_queue.pop_due q ~now:10 = [])

let test_negative_time_rejected () =
  let q = Event_queue.create () in
  check_raises_invalid "negative time" (fun () ->
      Event_queue.push q ~time:(-1) "x")

let test_drop_due () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t t) [ 2; 4; 6; 8 ];
  check_int "drops the due prefix" 2 (Event_queue.drop_due q ~now:5);
  check_int "rest remain" 2 (Event_queue.length q);
  check_true "next is 6" (Event_queue.peek_time q = Some 6);
  check_int "idempotent at the same now" 0 (Event_queue.drop_due q ~now:5);
  check_int "drains the rest" 2 (Event_queue.drop_due q ~now:100);
  check_true "empty afterwards" (Event_queue.is_empty q);
  check_int "empty queue drops nothing" 0 (Event_queue.drop_due q ~now:100)

let test_drop_due_matches_pop_due () =
  (* drop_due ~now must discard exactly the entries pop_due ~now would
     have returned — the due-index fast-forward contract. *)
  let mk times =
    let q = Event_queue.create () in
    List.iter (fun t -> Event_queue.push q ~time:t t) times;
    q
  in
  let times = [ 3; 1; 7; 7; 2; 9; 4 ] in
  let a = mk times and b = mk times in
  let popped = List.length (Event_queue.pop_due a ~now:6) in
  check_int "same count" popped (Event_queue.drop_due b ~now:6);
  check_true "same frontier"
    (Event_queue.peek_time a = Event_queue.peek_time b);
  check_int "same remainder" (Event_queue.length a) (Event_queue.length b)

let test_heap_growth () =
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    Event_queue.push q ~time:i i
  done;
  check_int "all stored" 1000 (Event_queue.length q);
  let drained = Event_queue.pop_due q ~now:10_000 in
  check_int "all drained" 1000 (List.length drained);
  Alcotest.(check (list int)) "sorted" (List.init 1000 Fun.id) drained

let props =
  [
    prop ~count:60 "pop sequence is sorted by time"
      Arbitrary.(list ~min_len:0 ~max_len:200 (int_range ~lo:0 ~hi:50 ()))
      (fun times ->
        let q = Event_queue.create () in
        List.iter (fun t -> Event_queue.push q ~time:t t) times;
        let rec drain acc =
          match Event_queue.pop q with
          | Some (t, _) -> drain (t :: acc)
          | None -> List.rev acc
        in
        let out = drain [] in
        out = List.sort compare times);
  ]

let suite =
  [
    case "basic ordering" test_basic_ordering;
    case "stability within a time" test_stability;
    case "pop_due threshold" test_pop_due_threshold;
    case "empty queue" test_empty;
    case "negative time rejected" test_negative_time_rejected;
    case "drop_due threshold" test_drop_due;
    case "drop_due matches pop_due" test_drop_due_matches_pop_due;
    case "heap growth" test_heap_growth;
  ]
  @ props
