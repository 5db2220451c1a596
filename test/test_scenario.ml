(* Tests for the scenario description language. *)

module Core = Wfs_core
module S = Core.Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let example_text =
  {|# Example-1-like cell
horizon 5000
seed 7
flow weight=1 drop=retx:2 source=mmpp:0.2 channel=ge:0.07,0.03
flow weight=1 source=cbr:2 channel=good
|}

let test_parse_basic () =
  let s = S.parse example_text in
  check_int "horizon" 5_000 s.S.horizon;
  check_int "seed" 7 s.S.seed;
  check_int "two flows" 2 (Array.length s.S.setups);
  let flows = Core.Presets.flows_of s.S.setups in
  Alcotest.(check (float 1e-9)) "weight" 1. flows.(0).Core.Params.weight;
  check_bool "drop policy" true
    (flows.(0).Core.Params.drop = Core.Params.Retx_limit 2);
  check_bool "default drop" true (flows.(1).Core.Params.drop = Core.Params.No_drop)

let test_parse_defaults () =
  let s = S.parse "flow source=cbr:2 channel=good\n" in
  check_int "default horizon" 100_000 s.S.horizon;
  check_int "default seed" 42 s.S.seed

let test_parse_all_sources_channels () =
  let text =
    {|flow source=poisson:0.1 channel=bernoulli:0.9
flow source=onoff:0.1,0.2 channel=badburst:5,10
flow source=pareto:4,12 channel=ge:0.1,0.1
flow weight=3 drop=retx-delay:2,50 source=mmpp:0.05 channel=good
flow drop=delay:100 source=cbr:4 channel=good
|}
  in
  let s = S.parse text in
  check_int "five flows" 5 (Array.length s.S.setups)

(* The scheduler's registry name fixes its channel knowledge, so a
   predictor line is refused on its own line instead of being ignored. *)
let test_predictor_line_rejected () =
  match S.parse "seed 3\npredictor snoop:4\nflow source=cbr:2 channel=good\n" with
  | exception
      Wfs_util.Error.Error { kind = Wfs_util.Error.Bad_spec; what; context; _ }
    ->
      check_int "line number" 2 (int_of_string (List.assoc "line" context));
      check_bool "names the -I/-P suffix" true
        (List.exists (String.equal "-I/-P") (String.split_on_char ' ' what))
  | _ -> Alcotest.fail "a predictor line must be a bad-spec error"

let test_parse_errors () =
  (* A few malformed inputs; each must raise with a useful message. *)
  let expect_error text =
    match S.parse text with
    | exception Wfs_util.Error.Error { kind = Wfs_util.Error.Bad_spec; _ } -> ()
    | _ -> Alcotest.failf "expected a bad-spec error for %S" text
  in
  expect_error "";
  expect_error "flow channel=good\n";
  expect_error "flow source=cbr:2\n";
  expect_error "flow source=warp:9 channel=good\n";
  expect_error "flow source=cbr:x channel=good\n";
  expect_error "bogus directive\n";
  expect_error "horizon many\nflow source=cbr:2 channel=good\n";
  expect_error "flow source=cbr:2 channel=good\nseed 3\n";
  (* Out-of-range directives fail at parse time, not when the run is built. *)
  expect_error "horizon -5\nflow source=cbr:2 channel=good\n";
  expect_error "predictor one-step\nflow source=cbr:2 channel=good\n"

let test_parse_error_line_number () =
  match S.parse "horizon 10\n# fine\nflow source=cbr:2\n" with
  | exception Wfs_util.Error.Error { kind = Wfs_util.Error.Bad_spec; context; _ }
    ->
      check_int "line number" 3 (int_of_string (List.assoc "line" context))
  | _ -> Alcotest.fail "expected a bad-spec error"

(* A scenario file runs like any other spec, through Exec. *)
let run_example_text () =
  let path = Filename.temp_file "wfs_scenario" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc example_text;
      close_out oc;
      Wfs_runner.Exec.run
        (Wfs_runner.Spec.of_scenario_file ~sched:"SwapA-P" path))

let test_run_scenario () =
  let m = run_example_text () in
  check_bool "arrivals happened" true (Core.Metrics.arrivals m ~flow:0 > 500);
  check_bool "deliveries happened" true (Core.Metrics.delivered m ~flow:1 > 2_000)

let test_run_deterministic () =
  let run () =
    let m = run_example_text () in
    (Core.Metrics.mean_delay m ~flow:0, Core.Metrics.delivered m ~flow:0)
  in
  check_bool "reproducible" true (run () = run ())

(* The scenario files shipped in examples/ must always parse. *)
let test_shipped_scenarios_parse () =
  let candidates =
    [ "examples/cell.scenario"; "../examples/cell.scenario" ]
  in
  let path =
    List.find_opt Sys.file_exists candidates
  in
  match path with
  | None -> () (* running from an unexpected cwd; covered by CLI usage *)
  | Some cell ->
      let s = S.load cell in
      check_int "cell.scenario flows" 4 (Array.length s.S.setups);
      let uplink = Filename.concat (Filename.dirname cell) "uplink.scenario" in
      let u = S.load uplink in
      check_int "uplink.scenario flows" 4 (Array.length u.S.setups);
      let hosts = Array.map fst u.S.addrs in
      Alcotest.(check (array int)) "uplink hosts" [| 1; 2; 2; 3 |] hosts;
      check_bool "directions" true
        (Array.to_list u.S.addrs
        |> List.map snd
        |> ( = ) [ S.Up; S.Up; S.Up; S.Down ])

let test_preset_names_for_extensions () =
  Alcotest.(check string) "cifq name" "CIF-Q-P"
    (Wfs_core.Presets.algorithm_name Wfs_core.Presets.Cifq_alg
       Wfs_core.Presets.Predicted);
  Alcotest.(check string) "csdps name" "CSDPS"
    (Wfs_core.Presets.algorithm_name Wfs_core.Presets.Csdps_alg
       Wfs_core.Presets.Predicted)

let test_load_file () =
  let path = Filename.temp_file "wfs_scenario" ".txt" in
  let oc = open_out path in
  output_string oc example_text;
  close_out oc;
  let s = S.load path in
  Sys.remove path;
  check_int "loaded flows" 2 (Array.length s.S.setups)

let suite =
  [
    ("parse basic", `Quick, test_parse_basic);
    ("parse defaults", `Quick, test_parse_defaults);
    ("parse all sources/channels", `Quick, test_parse_all_sources_channels);
    ("predictor line is a located error", `Quick, test_predictor_line_rejected);
    ("parse errors", `Quick, test_parse_errors);
    ("parse error line number", `Quick, test_parse_error_line_number);
    ("run scenario", `Quick, test_run_scenario);
    ("run deterministic", `Quick, test_run_deterministic);
    ("load file", `Quick, test_load_file);
    ("shipped scenarios parse", `Quick, test_shipped_scenarios_parse);
    ("extension preset names", `Quick, test_preset_names_for_extensions);
  ]
