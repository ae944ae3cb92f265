(* Binary min-heap on (time, seq); the monotone sequence number makes the
   ordering stable for equal times. *)
type 'a entry = { time : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length q = q.size
let is_empty q = q.size = 0

let entry_less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q =
  let cap = Array.length q.heap in
  if q.size >= cap then begin
    let dummy = q.heap.(0) in
    let fresh = Array.make (max 8 (2 * cap)) dummy in
    Array.blit q.heap 0 fresh 0 q.size;
    q.heap <- fresh
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_less q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && entry_less q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && entry_less q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q ~time value =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let entry = { time; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if Array.length q.heap = 0 then q.heap <- Array.make 8 entry;
  grow q;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek_time q = if q.size = 0 then None else Some q.heap.(0).time

(* Remove the earliest entry (the queue must be nonempty) and return it. *)
let remove_top q =
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  top

let pop q =
  if q.size = 0 then None
  else
    let top = remove_top q in
    Some (top.time, top.value)

(* The drains test the heap top in place: no closure, no option per
   entry, so a round with nothing due allocates nothing. *)
let pop_due q ~now =
  let acc = ref [] in
  while q.size > 0 && q.heap.(0).time <= now do
    acc := (remove_top q).value :: !acc
  done;
  List.rev !acc

let drop_due q ~now =
  let n = ref 0 in
  while q.size > 0 && q.heap.(0).time <= now do
    ignore (remove_top q);
    incr n
  done;
  !n
