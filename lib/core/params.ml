module Special = Nakamoto_numerics.Special

type t = { n : float; delta : float; p : float; nu : float }

let make ~n ~delta ~p ~nu =
  if not (Float.is_finite n && n >= 4.) then
    Error "Params.create: n must be >= 4 (Eq. 3)"
  else if not (Float.is_finite delta && delta >= 1.) then
    Error "Params.create: delta must be >= 1"
  else if not (p > 0. && p < 1.) then Error "Params.create: p must lie in (0, 1)"
  else if not (nu >= 0. && nu < 0.5) then
    Error "Params.create: nu must lie in [0, 1/2) (Eq. 2)"
  else Ok { n; delta; p; nu }

let make_of_c ~n ~delta ~nu ~c =
  if not (c > 0.) then Error "Params.of_c: c must be positive"
  else make ~n ~delta ~p:(1. /. (c *. n *. delta)) ~nu

let get = function Ok t -> t | Error m -> invalid_arg m
let create ~n ~delta ~p ~nu = get (make ~n ~delta ~p ~nu)
let of_c ~n ~delta ~nu ~c = get (make_of_c ~n ~delta ~nu ~c)

let of_sim_config (cfg : Nakamoto_sim.Config.t) =
  create ~n:(float_of_int cfg.n) ~delta:(float_of_int cfg.delta) ~p:cfg.p
    ~nu:(1. -. Nakamoto_sim.Config.mu cfg)

let mu t = 1. -. t.nu
let c t = 1. /. (t.p *. t.n *. t.delta)

let log_ratio t =
  if t.nu = 0. then invalid_arg "Params.log_ratio: requires nu > 0";
  log (mu t /. t.nu)

let log_abar t = Special.log_pow1p ~base:(-.t.p) ~exponent:(mu t *. t.n)
let abar t = exp (log_abar t)
let alpha t = -.Special.expm1 (log_abar t)

let log_alpha1 t =
  log (t.p *. mu t *. t.n)
  +. Special.log_pow1p ~base:(-.t.p) ~exponent:((mu t *. t.n) -. 1.)

let alpha1 t = exp (log_alpha1 t)
(* p nu n, left to right wherever p nu is a normal float, so those rates
   keep their bits.  Below Float.min_float the product p nu keeps only a
   few bits or none, so there p n (always normal) is taken first. *)
let p_nu_normal t = t.p *. t.nu >= Float.min_float

let adversary_rate t =
  if p_nu_normal t then t.p *. t.nu *. t.n else t.p *. t.n *. t.nu

let log_adversary_rate t =
  if t.nu = 0. then neg_infinity
  else if p_nu_normal t then log (adversary_rate t)
  else log t.p +. log t.nu +. log t.n

let honest_rate t = t.p *. mu t *. t.n

let pp fmt t =
  Format.fprintf fmt "{n=%g; delta=%g; p=%g; nu=%g; c=%g}" t.n t.delta t.p t.nu
    (c t)

let bitcoin_like = of_c ~n:1e5 ~delta:1. ~nu:0.25 ~c:60.
let figure1_point ~nu ~c = of_c ~n:1e5 ~delta:1e13 ~nu ~c
