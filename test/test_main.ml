let () =
  Alcotest.run "wfs"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("traffic", Test_traffic.suite);
      ("channel", Test_channel.suite);
      ("predictor", Test_predictor.suite);
      ("wireline", Test_wireline.suite);
      ("iwfq", Test_iwfq.suite);
      ("wps", Test_wps.suite);
      ("simulator", Test_simulator.suite);
      ("mac", Test_mac.suite);
      ("bounds", Test_bounds.suite);
      ("extensions", Test_extensions.suite);
      ("scenario", Test_scenario.suite);
      ("runner", Test_runner.suite);
      ("guard", Test_guard.suite);
      ("topo", Test_topo.suite);
      ("perf_opt", Test_perf_opt.suite);
      ("integration", Test_integration.suite);
      ("obs", Test_obs.suite);
      ("xray", Test_xray.suite);
      ("jsonl", Test_jsonl.suite);
      ("analysis_kit", Test_analysis_kit.suite);
    ]
