type t = int64

let equal = Int64.equal
let compare = Int64.compare
let hash t = Int64.to_int t land max_int
let zero = 0L
let of_int64 x = x
let to_int64 x = x

(* The one copy of the mix: absorb [x] as h * 0x100000001B3 + x, then the
   SplitMix64 finalizer ([Rng.splitmix64]) written out, so that a chain
   of absorbs inlines into one body whose intermediates stay unboxed. *)
let[@inline] mix h x =
  let open Int64 in
  let z = add (add (mul h 0x100000001B3L) x) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let combine = mix

let[@inline] fields h ~miner ~round ~nonce =
  mix
    (mix (mix h (Int64.of_int miner)) (Int64.of_int round))
    (Int64.of_int nonce)

let of_fields ~parent ~miner ~round ~nonce = fields parent ~miner ~round ~nonce

let[@inline] unsigned_less a b =
  Int64.compare (Int64.add a Int64.min_int) (Int64.add b Int64.min_int) < 0

let keyed_below ~key ~target ~parent ~miner ~round ~nonce =
  let d = fields (mix key parent) ~miner ~round ~nonce in
  if unsigned_less d target then Some d else None

let to_hex t = Printf.sprintf "%016Lx" t
let pp fmt t = Format.pp_print_string fmt (String.sub (to_hex t) 0 8)
