(* Observability suite: wfs-trace/1 round-trips (qcheck bit-exact,
   torn-tail tolerance, corruption refusal), deterministic positional
   merge of sharded instrument registries across --jobs counts, flight
   recorder capacity/eviction, fault reports carrying recent events, and
   the lockstep property — a fully probed run produces byte-identical
   metrics to an unprobed one. *)

module Error = Wfs_util.Error
module Json = Wfs_util.Json
module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Pool = Wfs_runner.Pool
module Trace = Wfs_obs.Trace
module Sink = Wfs_obs.Sink
module Instruments = Wfs_obs.Instruments
module Probe = Wfs_obs.Probe
module Tracelog = Wfs_core.Tracelog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_file ?(suffix = ".trace") f =
  let path = Filename.temp_file "wfs_obs" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- generators --- *)

let float_gen =
  (* Ordinary magnitudes plus every special the codec must preserve. *)
  QCheck.Gen.(
    frequency
      [
        (8, float_bound_exclusive 1e6);
        (2, map Float.neg (float_bound_exclusive 1e6));
        (1, return Float.nan);
        (1, return Float.infinity);
        (1, return Float.neg_infinity);
        (1, return 0.1);
      ])

let flow_gen =
  QCheck.Gen.(
    map
      (fun ((queue, good), (tag, credit)) -> { Trace.queue; good; tag; credit })
      (pair
         (pair (0 -- 1000) bool)
         (pair (opt float_gen) (opt (-100 -- 100)))))

let sample_gen =
  QCheck.Gen.(
    map
      (fun ((slot, selected), ((vt, lag), flows)) ->
        {
          Trace.slot;
          selected;
          virtual_time = vt;
          lag_sum = lag;
          flows = Array.of_list flows;
        })
      (pair
         (pair (0 -- 1_000_000) (opt (0 -- 32)))
         (pair
            (pair (opt float_gen) (opt (-1000 -- 1000)))
            (list_size (1 -- 8) flow_gen))))

let sample_arb = QCheck.make sample_gen

(* --- wfs-trace/1 round-trips --- *)

let prop_sample_roundtrip =
  QCheck.Test.make ~name:"trace sample JSONL round-trip is bit-exact"
    ~count:500 sample_arb (fun s ->
      match Trace.sample_of_string (Trace.sample_to_string s) with
      | Some s' -> Trace.sample_equal s s'
      | None -> false)

let prop_header_roundtrip =
  QCheck.Test.make ~name:"trace header round-trip" ~count:200
    QCheck.(pair (1 -- 16) (1 -- 1000))
    (fun (n_flows, stride) ->
      let hdr =
        Trace.header ~stride
          ~params:[ ("sched", Json.Str "WPS"); ("seed", Json.Int 7) ]
          ~n_flows ()
      in
      match Trace.header_of_json (Trace.header_to_json hdr) with
      | Some h' -> Trace.header_equal hdr h'
      | None -> false)

let write_trace path hdr samples =
  let sink = Sink.jsonl ~path hdr in
  List.iter (Sink.write sink) samples
  (* leave closing to the caller when testing torn writes *);
  Sink.close sink

let sample ~slot =
  {
    Trace.slot;
    selected = Some 0;
    virtual_time = Some (float_of_int slot *. 0.5);
    lag_sum = None;
    flows = [| { Trace.queue = slot; good = true; tag = None; credit = None } |];
  }

let test_load_tolerates_torn_tail () =
  with_temp_file (fun path ->
      let hdr = Trace.header ~n_flows:1 () in
      write_trace path hdr [ sample ~slot:0; sample ~slot:1; sample ~slot:2 ];
      (* Simulate an interrupted append: half a JSON object, no newline. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"slot\":3,\"sel";
      close_out oc;
      match Trace.load ~path with
      | Ok { hdr = h; samples } ->
          check_bool "header survives" true (Trace.header_equal hdr h);
          check_int "torn final line dropped" 2
            (List.length samples - 1);
          check_bool "remaining samples intact" true
            (List.for_all2 Trace.sample_equal samples
               [ sample ~slot:0; sample ~slot:1; sample ~slot:2 ])
      | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e))

let test_load_refuses_mid_file_corruption () =
  with_temp_file (fun path ->
      let hdr = Trace.header ~n_flows:1 () in
      let oc = open_out path in
      output_string oc (Trace.header_to_string hdr);
      output_char oc '\n';
      output_string oc (Trace.sample_to_string (sample ~slot:0));
      output_char oc '\n';
      output_string oc "not json at all\n";
      output_string oc (Trace.sample_to_string (sample ~slot:2));
      output_char oc '\n';
      close_out oc;
      match Trace.load ~path with
      | Ok _ -> Alcotest.fail "corrupt middle line must be refused"
      | Error e ->
          check_str "kind" "bad-spec" (Error.kind_to_string e.Error.kind))

let test_load_refuses_flow_count_mismatch () =
  with_temp_file (fun path ->
      let hdr = Trace.header ~n_flows:2 () in
      let oc = open_out path in
      output_string oc (Trace.header_to_string hdr);
      output_char oc '\n';
      (* one flow in the sample, two promised by the header *)
      output_string oc (Trace.sample_to_string (sample ~slot:0));
      output_char oc '\n';
      output_string oc (Trace.sample_to_string (sample ~slot:1));
      output_char oc '\n';
      close_out oc;
      match Trace.load ~path with
      | Ok _ -> Alcotest.fail "flow-count mismatch must be refused"
      | Error e ->
          check_str "kind" "bad-spec" (Error.kind_to_string e.Error.kind))

let test_sink_contracts () =
  with_temp_file ~suffix:".csv" (fun path ->
      let hdr = Trace.header ~n_flows:1 () in
      let sink = Sink.csv ~path hdr in
      Sink.write sink (sample ~slot:0);
      Sink.write sink (sample ~slot:1);
      check_int "written counts samples" 2 (Sink.written sink);
      Sink.close sink;
      Sink.close sink (* idempotent *);
      (match Sink.write sink (sample ~slot:2) with
      | () -> Alcotest.fail "write after close must be Bad_config"
      | exception Error.Error e ->
          check_str "kind" "bad-config" (Error.kind_to_string e.Error.kind));
      let wrong =
        { (sample ~slot:3) with Trace.flows = [||] }
      in
      let sink2 = Sink.jsonl ~path hdr in
      (match Sink.write sink2 wrong with
      | () -> Alcotest.fail "width mismatch must be Bad_config"
      | exception Error.Error e ->
          check_str "kind" "bad-config" (Error.kind_to_string e.Error.kind));
      Sink.close sink2)

(* --- sharded instruments: deterministic merge across jobs --- *)

let run_registry seed =
  let reg = Instruments.create () in
  let spec = Spec.make ~seed ~horizon:2000 ~sched:"SwapA-P" (Spec.example 1) in
  let _metrics =
    Exec.run
      ~hooks:(fun flows sched ->
        [
          Probe.create ~instruments:reg ~n_flows:(Array.length flows) sched;
        ])
      spec
  in
  reg

let merged_snapshot ~jobs =
  let regs = Pool.map ~jobs run_registry (Array.init 6 (fun k -> 40 + k)) in
  let merged = Instruments.merge_all (Array.to_list regs) in
  ( Wfs_util.Tablefmt.rows (Instruments.to_table merged),
    Json.to_string ~pretty:false (Instruments.to_json merged) )

let test_merge_is_jobs_invariant () =
  let rows1, json1 = merged_snapshot ~jobs:1 in
  let rows2, json2 = merged_snapshot ~jobs:2 in
  let rows4, json4 = merged_snapshot ~jobs:4 in
  check_bool "rows jobs=1 vs jobs=2" true (rows1 = rows2);
  check_bool "rows jobs=1 vs jobs=4" true (rows1 = rows4);
  check_str "json jobs=1 vs jobs=2" json1 json2;
  check_str "json jobs=1 vs jobs=4" json1 json4

let test_merge_refuses_mismatch () =
  let a = Instruments.create () in
  let _ = Instruments.counter a "x" in
  let b = Instruments.create () in
  let _ = Instruments.gauge b "x" in
  (match Instruments.merge a b with
  | _ -> Alcotest.fail "kind mismatch must be Bad_config"
  | exception Error.Error e ->
      check_str "kind" "bad-config" (Error.kind_to_string e.Error.kind));
  let c = Instruments.create () in
  let _ = Instruments.counter c "y" in
  match Instruments.merge a c with
  | _ -> Alcotest.fail "name mismatch must be Bad_config"
  | exception Error.Error e ->
      check_str "kind" "bad-config" (Error.kind_to_string e.Error.kind)

let test_instruments_json_roundtrip () =
  let reg = Instruments.create () in
  let c = Instruments.counter reg "events" in
  let g = Instruments.gauge ~policy:Instruments.Last reg "vt" in
  let unset = Instruments.gauge reg "never-set" in
  let h = Instruments.histogram reg "delay" in
  Instruments.add c 41;
  Instruments.incr c;
  Instruments.set g 3.25;
  Instruments.set g 7.5;
  ignore unset;
  List.iter (Instruments.observe h) [ 1.; 2.; 2.; 10. ];
  let j = Instruments.to_json reg in
  match Instruments.of_json j with
  | None -> Alcotest.fail "of_json rejected its own to_json"
  | Some reg' ->
      check_str "bit-exact round-trip"
        (Json.to_string ~pretty:false j)
        (Json.to_string ~pretty:false (Instruments.to_json reg'));
      check_bool "rendered tables agree" true
        (Wfs_util.Tablefmt.rows (Instruments.to_table reg)
        = Wfs_util.Tablefmt.rows (Instruments.to_table reg'))

(* --- flight recorder --- *)

let test_flight_recorder_capacity_and_eviction () =
  let tr = Tracelog.create ~capacity:4 () in
  check_bool "capacity accessor" true (Tracelog.capacity tr = Some 4);
  for slot = 0 to 9 do
    Tracelog.record tr ~slot (Tracelog.Arrival { flow = 0; seq = slot })
  done;
  check_int "ring retains capacity entries" 4 (Tracelog.length tr);
  let slots = List.map (fun e -> e.Tracelog.slot) (Tracelog.events tr) in
  check_bool "oldest evicted, order chronological" true (slots = [ 6; 7; 8; 9 ]);
  match Tracelog.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_fault_report_carries_flight_events () =
  let spec = Spec.make ~seed:7 ~horizon:5000 ~sched:"SwapA-P" (Spec.example 1) in
  let fault ~slot ~selected:_ ~states:_ ~metrics:_ ~predicted_good:_ =
    if slot = 1500 then Error.sim_fault ~who:"test_obs" "injected fault"
  in
  match Exec.run_outcome ~hooks:(fun _ _ -> [ fault ]) ~flight_recorder:8 spec with
  | Ok _ -> Alcotest.fail "injected fault must fail the run"
  | Error e ->
      check_str "kind" "sim-fault" (Error.kind_to_string e.Error.kind);
      let ctx k = List.assoc_opt k e.Error.context in
      (match ctx "flight-recorder-events" with
      | Some n ->
          check_bool "recorder retained events" true (int_of_string n > 0);
          check_bool "recorder bounded by capacity" true (int_of_string n <= 8)
      | None -> Alcotest.fail "missing flight-recorder-events context");
      (match ctx "flight-recorder" with
      | Some dump ->
          (* Entries render as "s<slot> <event>" and the ring only holds
             slots near the fault. *)
          check_bool "dump is non-empty" true (String.length dump > 0);
          check_bool "dump mentions a recent slot" true
            (let re_slot = "s1" in
             let len = String.length dump and plen = String.length re_slot in
             let rec scan i =
               i + plen <= len
               && (String.equal (String.sub dump i plen) re_slot || scan (i + 1))
             in
             scan 0)
      | None -> Alcotest.fail "missing flight-recorder context")

let test_flight_recorder_excludes_trace () =
  let spec = Spec.make ~seed:7 ~horizon:100 ~sched:"SwapA-P" (Spec.example 1) in
  match
    Exec.run_outcome ~trace:(Tracelog.create ()) ~flight_recorder:4 spec
  with
  | Ok _ -> Alcotest.fail "trace + flight_recorder must be Bad_config"
  | Error e -> check_str "kind" "bad-config" (Error.kind_to_string e.Error.kind)

(* --- lockstep: probing must not change the simulation --- *)

let test_probed_run_is_lockstep () =
  let spec = Spec.make ~seed:11 ~horizon:4000 ~sched:"SwapA-P" (Spec.example 1) in
  let bare = Exec.run spec in
  with_temp_file (fun path ->
      let reg = Instruments.create () in
      let n_flows = Array.length (Exec.setups_of spec) in
      let hdr = Trace.header ~stride:3 ~n_flows () in
      let sink = Sink.jsonl ~path hdr in
      let probed =
        Exec.run
          ~hooks:(fun _ sched ->
            [
              Probe.create ~stride:3 ~sinks:[ sink ] ~instruments:reg ~n_flows
                sched;
            ])
          spec
      in
      Sink.close sink;
      check_str "metrics byte-identical with probing on"
        (Json.to_string ~pretty:false (Wfs_core.Metrics.to_json bare))
        (Json.to_string ~pretty:false (Wfs_core.Metrics.to_json probed));
      (* And the trace itself is loadable with the expected cadence. *)
      match Trace.load ~path with
      | Ok { samples; _ } ->
          check_int "stride-3 sample count" ((4000 + 2) / 3)
            (List.length samples)
      | Error e -> Alcotest.failf "trace load failed: %s" (Error.to_string e))

let test_probe_validation () =
  let spec = Spec.make ~seed:1 ~horizon:10 ~sched:"SwapA-P" (Spec.example 1) in
  match
    Exec.run
      ~hooks:(fun _ sched -> [ Probe.create ~stride:0 ~n_flows:2 sched ])
      spec
  with
  | _ -> Alcotest.fail "stride 0 must be Bad_config"
  | exception Error.Error e ->
      check_str "kind" "bad-config" (Error.kind_to_string e.Error.kind)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sample_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_roundtrip;
    Alcotest.test_case "load tolerates a torn final line" `Quick
      test_load_tolerates_torn_tail;
    Alcotest.test_case "load refuses mid-file corruption" `Quick
      test_load_refuses_mid_file_corruption;
    Alcotest.test_case "load refuses flow-count mismatch" `Quick
      test_load_refuses_flow_count_mismatch;
    Alcotest.test_case "sink write/close contracts" `Quick test_sink_contracts;
    Alcotest.test_case "sharded merge is jobs-invariant" `Quick
      test_merge_is_jobs_invariant;
    Alcotest.test_case "merge refuses mismatched registries" `Quick
      test_merge_refuses_mismatch;
    Alcotest.test_case "instruments JSON round-trip" `Quick
      test_instruments_json_roundtrip;
    Alcotest.test_case "flight recorder capacity and eviction" `Quick
      test_flight_recorder_capacity_and_eviction;
    Alcotest.test_case "fault report carries flight events" `Quick
      test_fault_report_carries_flight_events;
    Alcotest.test_case "flight recorder excludes full trace" `Quick
      test_flight_recorder_excludes_trace;
    Alcotest.test_case "probed run is lockstep with unprobed" `Quick
      test_probed_run_is_lockstep;
    Alcotest.test_case "probe validates stride" `Quick test_probe_validation;
  ]
