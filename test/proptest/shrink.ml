type 'a t = 'a -> 'a Seq.t

let nothing _ = Seq.empty

(* Candidates halving the distance to [target], nearest-to-target first:
   target itself, then midpoints, ending at the immediate neighbour of the
   failing value.  Works in either direction: the offset walks from 0
   toward [d] and the truncating division shrinks its magnitude each step,
   reaching [d] exactly (and stopping) from both sides. *)
let int ?(target = 0) x =
  if x = target then Seq.empty
  else
    let d = x - target in
    let rec go c () =
      if c = d then Seq.Nil else Seq.Cons (target + c, go (d - ((d - c) / 2)))
    in
    go 0

let float ?(target = 0.) x =
  if x = target || Float.is_nan x then Seq.empty
  else
    let deltas = [ 1.; 0.5; 0.25; 0.125 ] in
    List.to_seq
      (List.filter
         (fun c -> c <> x && Float.is_finite c)
         (target
         :: List.map (fun f -> x -. ((x -. target) *. f)) deltas))

(* Standard list shrinking: drop progressively smaller chunks, then
   shrink single elements in place. *)
let list shrink_elem l =
  let n = List.length l in
  if n = 0 then Seq.empty
  else begin
    let drop_chunk size =
      if size <= 0 || size > n then Seq.empty
      else
        Seq.init
          ((n / size) + if n mod size = 0 then 0 else 1)
          (fun i ->
            List.filteri (fun j _ -> j < i * size || j >= (i + 1) * size) l)
    in
    let rec chunk_sizes s () =
      if s = 0 then Seq.Nil else Seq.Cons (s, chunk_sizes (s / 2))
    in
    let removals = Seq.concat_map drop_chunk (chunk_sizes n) in
    let in_place =
      Seq.concat_map
        (fun i ->
          match List.nth_opt l i with
          | None -> Seq.empty
          | Some x ->
            Seq.map
              (fun x' -> List.mapi (fun j y -> if j = i then x' else y) l)
              (shrink_elem x))
        (Seq.init n Fun.id)
    in
    Seq.append removals in_place
  end

let pair shrink_a shrink_b (a, b) =
  Seq.append
    (Seq.map (fun a' -> (a', b)) (shrink_a a))
    (Seq.map (fun b' -> (a, b')) (shrink_b b))
