module Rng = Nakamoto_prob.Rng

type 'a t = Rng.t -> 'a

let return x _ = x
let map f g rng = f (g rng)
let ( let* ) g f rng = f (g rng) rng
let pair a b rng =
  let x = a rng in
  let y = b rng in
  (x, y)

let triple a b c rng =
  let x = a rng in
  let y = b rng in
  let z = c rng in
  (x, y, z)

let bool rng = Rng.bernoulli rng ~p:0.5

let int_range ~lo ~hi rng =
  if lo > hi then invalid_arg "Gen.int_range: lo > hi";
  lo + Rng.int rng ~bound:(hi - lo + 1)

let float_range ~lo ~hi rng =
  if not (lo <= hi && Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Gen.float_range: requires finite lo <= hi";
  lo +. ((hi -. lo) *. Rng.float rng)

let log_float_range ~lo ~hi rng =
  if not (0. < lo && lo <= hi && Float.is_finite hi) then
    invalid_arg "Gen.log_float_range: requires 0 < lo <= hi";
  exp (float_range ~lo:(log lo) ~hi:(log hi) rng)

let oneof gens rng =
  match gens with
  | [] -> invalid_arg "Gen.oneof: empty list"
  | _ -> List.nth gens (Rng.int rng ~bound:(List.length gens)) rng

let oneof_value xs rng =
  match xs with
  | [] -> invalid_arg "Gen.oneof_value: empty list"
  | _ -> List.nth xs (Rng.int rng ~bound:(List.length xs))

let frequency weighted rng =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: weights must sum to > 0";
  let roll = Rng.int rng ~bound:total in
  let rec pick acc = function
    | [] -> assert false
    | (w, g) :: rest -> if roll < acc + w then g rng else pick (acc + w) rest
  in
  pick 0 weighted

let list ~len elem rng =
  let n = len rng in
  if n < 0 then invalid_arg "Gen.list: negative length";
  List.init n (fun _ -> elem rng)

let array ~len elem rng =
  let n = len rng in
  if n < 0 then invalid_arg "Gen.array: negative length";
  Array.init n (fun _ -> elem rng)
