(* A tour of the Markov machinery behind the paper's proof.

   Builds the suffix chain C_F (Figure 2) at a small Delta, audits the
   properties the paper asserts (irreducible, aperiodic), compares the
   closed-form stationary distribution (Eq. 37) with two numeric solvers,
   measures mixing, and finishes with the absorbing-chain race that the
   settlement calculator is built on. *)

module Markov = Nakamoto_markov
open Nakamoto_core

let () =
  let delta = 4 and alpha = 0.25 in
  let chain = Suffix_chain.build ~delta ~alpha in
  Printf.printf "suffix chain C_F at Delta = %d, alpha = %g\n" delta alpha;
  Printf.printf "  states       %d (= 2 Delta + 1)\n" (Markov.Chain.size chain);
  Printf.printf "  irreducible  %b\n" (Markov.Chain.is_irreducible chain);
  Printf.printf "  period       %d\n" (Markov.Chain.period chain);

  (* Stationary distribution, three ways. *)
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  let solved = Markov.Chain.stationary_linear_solve chain in
  let powered = Markov.Chain.stationary_power_iteration chain in
  Printf.printf "\n  %-18s %-10s %-10s %-10s\n" "state" "Eq. 37" "solve" "power";
  Array.iteri
    (fun i pi ->
      Printf.printf "  %-18s %.8f %.8f %.8f\n"
        (Suffix_chain.state_label (Suffix_chain.state_of_index ~delta i))
        pi solved.(i) powered.(i))
    closed;

  (* Mixing. *)
  (match Markov.Chain.mixing_time chain with
  | Some t -> Printf.printf "\n  1/8-mixing time (exact)      %d steps\n" t
  | None -> print_endline "  chain did not mix?!");

  (* The walk itself: occupancy of Deep matches pi(Deep). *)
  let rng = Nakamoto_prob.Rng.create ~seed:1L in
  let deep = Suffix_chain.index_of_state ~delta Suffix_chain.Deep in
  let steps = 200_000 in
  let visits =
    Markov.Chain.occupancy ~rng chain ~start:0 ~steps ~target:(fun s -> s = deep)
  in
  Printf.printf "\n  pi(HN>=D) = %.6f; walk occupancy over %d steps = %.6f\n"
    closed.(deep) steps
    (float_of_int visits /. float_of_int steps);

  (* Absorbing analysis: the 2-behind catch-up race at ratio 0.5. *)
  let race =
    Markov.Chain.create ~size:9
      ~rows:
        (Array.init 9 (fun i ->
             if i = 0 || i = 8 then [ (i, 1.) ]
             else [ (i + 1, 1. /. 3.); (i - 1, 2. /. 3.) ]))
      ()
  in
  let absorbing = Markov.Absorbing.create ~chain:race ~absorbing:[ 0; 8 ] in
  Printf.printf
    "\nrace to +1 from 2 behind (attacker rate half the honest rate):\n";
  Printf.printf
    "  catch-up probability  %.6f (unbounded race would give 0.5^3 = %.6f;\n\
    \                        the give-up boundary 5 below trims it)\n"
    (Markov.Absorbing.absorption_probability absorbing ~from:5 ~into:8)
    (0.5 ** 3.);
  Printf.printf "  expected race length  %.2f block events\n"
    (Markov.Absorbing.expected_steps_to_absorption absorbing ~from:5)
