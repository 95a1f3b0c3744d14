let () =
  (* The server and chaos suites run clients and daemons in this
     process. A daemon ignores SIGPIPE only while it runs, so a client
     write racing a daemon's exit (or a connection it dropped) would
     kill the whole test process; ignore it here so the write fails
     with EPIPE, which the clients report as an error. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "omq-guarded"
    [
      ("logic", Test_logic.suite);
      ("structure", Test_structure.suite);
      ("eval", Test_eval.suite);
      ("gf", Test_gf.suite);
      ("query", Test_query.suite);
      ("dl", Test_dl.suite);
      ("reasoner", Test_reasoner.suite);
      ("ground", Test_ground.suite);
      ("engine", Test_engine.suite);
      ("budget", Test_budget.suite);
      ("datalog", Test_datalog.suite);
      ("incremental", Test_incremental.suite);
      ("material", Test_material.suite);
      ("csp", Test_csp.suite);
      ("sat22", Test_sat22.suite);
      ("tm", Test_tm.suite);
      ("rewriting", Test_rewriting.suite);
      ("classify", Test_classify.suite);
      ("bioportal", Test_bioportal.suite);
      ("omq", Test_omq.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
      ("properties", Test_properties.suite);
      ("protocol", Test_protocol.suite);
      ("server", Test_server.suite);
      ("telemetry", Test_telemetry.suite);
      ("chaos", Test_chaos.suite);
      ("core", Test_core.suite);
    ]
