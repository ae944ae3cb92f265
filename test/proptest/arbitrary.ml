type 'a t = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
}

let make ?(shrink = Shrink.nothing) ?(print = fun _ -> "<opaque>") gen =
  { gen; shrink; print }

let gen t = t.gen
let shrink t = t.shrink
let print t = t.print

let int_range ?shrink_target ~lo ~hi () =
  let target =
    match shrink_target with
    | Some tg ->
      if tg < lo || tg > hi then
        invalid_arg "Arbitrary.int_range: shrink target outside range";
      tg
    | None -> if lo <= 0 && hi >= 0 then 0 else lo
  in
  {
    gen = Gen.int_range ~lo ~hi;
    shrink = Shrink.int ~target;
    print = string_of_int;
  }

let float_range ~lo ~hi =
  {
    gen = Gen.float_range ~lo ~hi;
    shrink = (fun x -> Seq.filter (fun c -> lo <= c && c <= hi) (Shrink.float ~target:lo x));
    print = (fun x -> Printf.sprintf "%.17g" x);
  }

let log_float_range ~lo ~hi =
  { (float_range ~lo ~hi) with gen = Gen.log_float_range ~lo ~hi }

let bool = { gen = Gen.bool; shrink = (function true -> Seq.return false | false -> Seq.empty); print = string_of_bool }

let list ~min_len ~max_len elem =
  if not (0 <= min_len && min_len <= max_len) then
    invalid_arg "Arbitrary.list: requires 0 <= min_len <= max_len";
  {
    gen = Gen.list ~len:(Gen.int_range ~lo:min_len ~hi:max_len) elem.gen;
    shrink =
      (fun l ->
        Seq.filter
          (fun l' -> List.length l' >= min_len)
          (Shrink.list elem.shrink l));
    print =
      (fun l -> "[" ^ String.concat "; " (List.map elem.print l) ^ "]");
  }

let pair a b =
  {
    gen = Gen.pair a.gen b.gen;
    shrink = Shrink.pair a.shrink b.shrink;
    print = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.print x) (b.print y));
  }

let triple a b c =
  {
    gen = Gen.triple a.gen b.gen c.gen;
    shrink =
      (fun (x, y, z) ->
        Seq.map
          (fun ((x, y), z) -> (x, y, z))
          (Shrink.pair (Shrink.pair a.shrink b.shrink) c.shrink ((x, y), z)));
    print =
      (fun (x, y, z) ->
        Printf.sprintf "(%s, %s, %s)" (a.print x) (b.print y) (c.print z));
  }

let map ?(shrink = Shrink.nothing) ?(print = fun _ -> "<mapped>") f t =
  { gen = Gen.map f t.gen; shrink; print }
