(* Property-test tier entry point.  Failures print a (seed, path) pair;
   see DESIGN.md §8 for the replay workflow. *)

let () =
  Alcotest.run "nakamoto_proptest"
    [
      ("engine", Test_engine.suite);
      ("props", Test_props.suite);
      ("telemetry", Test_telemetry.suite);
      ("markov", Test_markov_props.suite);
      ("oracle", Test_oracle.suite);
      ("audit", Test_audit_props.suite);
      ("wire", Test_wire_props.suite);
      ("surface", Test_surface_props.suite);
    ]
