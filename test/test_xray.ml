(* wfs_xray: bit-exact codec round-trips for the causality / windowed /
   mux schemas, Journal-convention torn-tail tolerance, windowed-collector
   boundary behavior, skip-telemetry compression witnesses (a collector
   must never degenerate the fast path), and traced topology runs —
   byte-identical to bare runs and across every --jobs value. *)

module Causality = Wfs_xray.Causality
module Windowed = Wfs_xray.Windowed
module Mux = Wfs_xray.Mux
module Skip_stats = Wfs_core.Skip_stats
module Skip_telemetry = Wfs_xray.Skip_telemetry
module Trace = Wfs_obs.Trace
module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Topology = Wfs_topo.Topology
module Cell = Wfs_topo.Cell
module Sched = Wfs_core.Wireless_sched
module Registry = Wfs_core.Registry
module C = Wfs_core.Sim_config
module M = Wfs_core.Metrics
module Json = Wfs_util.Json
module Error = Wfs_util.Error

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_temp_file ?(suffix = ".xray") f =
  let path = Filename.temp_file "wfs_xray" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

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

let carry_gen =
  QCheck.Gen.(
    map
      (fun (lag, credit) -> { Sched.lag; credit })
      (pair float_gen (-100 -- 100)))

let verdict_gen =
  QCheck.Gen.oneofl
    [
      Causality.verdict_deliver;
      Causality.verdict_blocked;
      Causality.verdict_lost;
      Causality.verdict_corrupt;
    ]

(* Every constructor appears: the generators double as the liveness
   witness keeping the A3 dead-event audit clean for the real tree. *)
let event_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun ((slot, flow), ((src, dst), verdict)) ->
              Causality.Move { slot; flow; src; dst; verdict })
            (pair
               (pair (0 -- 1_000_000) (0 -- 256))
               (pair (pair (0 -- 64) (0 -- 64)) verdict_gen)) );
        ( 1,
          map
            (fun ((slot, flow), dst) -> Causality.Rehome { slot; flow; dst })
            (pair (pair (0 -- 1_000_000) (0 -- 256)) (0 -- 64)) );
        ( 1,
          map
            (fun ((slot, cell), orphaned) ->
              Causality.Crash { slot; cell; orphaned })
            (pair
               (pair (0 -- 1_000_000) (0 -- 64))
               (list_size (0 -- 8) (0 -- 256))) );
        ( 3,
          map
            (fun ((slot, flow), (cell, (carried, accepted))) ->
              Causality.Carry { slot; flow; cell; carried; accepted })
            (pair
               (pair (0 -- 1_000_000) (0 -- 256))
               (pair (0 -- 64) (pair carry_gen carry_gen))) );
      ])

let window_gen =
  QCheck.Gen.(
    map
      (fun (((index, start_slot), (end_slot, (jain, gap))),
            ((arrivals, delivered), ((dropped, backlog), loss))) ->
        {
          Windowed.index;
          start_slot;
          end_slot;
          jain;
          gap;
          arrivals;
          delivered;
          dropped;
          backlog;
          loss;
        })
      (pair
         (pair
            (pair (0 -- 10_000) (0 -- 1_000_000))
            (pair (0 -- 1_000_000) (pair float_gen float_gen)))
         (pair
            (pair (0 -- 100_000) (0 -- 100_000))
            (pair (pair (0 -- 100_000) (0 -- 100_000)) float_gen))))

let flow_sample_gen =
  QCheck.Gen.(
    map
      (fun ((queue, good), (tag, credit)) -> { Trace.queue; good; tag; credit })
      (pair (pair (0 -- 1000) bool) (pair (opt float_gen) (opt (-100 -- 100)))))

let entry_gen =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map
            (fun ((cell, slot), gids) ->
              Mux.Roster { cell; slot; gids = Array.of_list gids })
            (pair (pair (0 -- 64) (0 -- 1_000_000)) (list_size (0 -- 8) (0 -- 256)))
        );
        ( 3,
          map
            (fun (cell, ((slot, selected), ((vt, lag), flows))) ->
              Mux.Sample
                {
                  cell;
                  sample =
                    {
                      Trace.slot;
                      selected;
                      virtual_time = vt;
                      lag_sum = lag;
                      flows = Array.of_list flows;
                    };
                })
            (pair (0 -- 64)
               (pair
                  (pair (0 -- 1_000_000) (opt (0 -- 32)))
                  (pair
                     (pair (opt float_gen) (opt (-1000 -- 1000)))
                     (list_size (1 -- 8) flow_sample_gen)))) );
      ])

(* --- codec round-trips --- *)

let prop_event_roundtrip =
  QCheck.Test.make ~name:"causality event JSONL round-trip is bit-exact"
    ~count:500 (QCheck.make event_gen) (fun e ->
      match Causality.event_of_string (Causality.event_to_string e) with
      | Some e' -> Causality.event_equal e e'
      | None -> false)

let prop_window_roundtrip =
  QCheck.Test.make ~name:"windowed window JSONL round-trip is bit-exact"
    ~count:500 (QCheck.make window_gen) (fun w ->
      match Windowed.window_of_string (Windowed.window_to_string w) with
      | Some w' -> Windowed.window_equal w w'
      | None -> false)

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"xray-trace entry JSONL round-trip is bit-exact"
    ~count:500 (QCheck.make entry_gen) (fun e ->
      match Mux.entry_of_string (Mux.entry_to_string e) with
      | Some e' -> Mux.entry_equal e e'
      | None -> false)

let prop_causality_file_roundtrip =
  QCheck.Test.make ~name:"causality write/load round-trips event lists"
    ~count:50
    (QCheck.make QCheck.Gen.(list_size (0 -- 20) event_gen))
    (fun events ->
      with_temp_file (fun path ->
          Causality.write ~path events;
          match Causality.load ~path with
          | Ok events' -> List.equal Causality.event_equal events events'
          | Error _ -> false))

(* --- Journal convention: torn tail tolerated, corruption refused --- *)

let sample_events =
  [
    Causality.Move
      {
        slot = 500;
        flow = 3;
        src = 0;
        dst = 2;
        verdict = Causality.verdict_deliver;
      };
    Causality.Crash { slot = 1000; cell = 1; orphaned = [ 4; 5 ] };
    Causality.Rehome { slot = 1500; flow = 4; dst = 0 };
    Causality.Carry
      {
        slot = 1500;
        flow = 4;
        cell = 0;
        carried = { Sched.lag = 2.5; credit = 3 };
        accepted = { Sched.lag = 1.0; credit = 2 };
      };
  ]

let test_causality_torn_tail () =
  with_temp_file (fun path ->
      Causality.write ~path sample_events;
      append_raw path "{\"k\":\"move\",\"slot\":9";
      match Causality.load ~path with
      | Ok events ->
          check_int "torn tail dropped" (List.length sample_events)
            (List.length events)
      | Error e -> Alcotest.failf "load refused torn tail: %s" (Error.to_string e))

let test_causality_corruption_refused () =
  with_temp_file (fun path ->
      Causality.write ~path sample_events;
      append_raw path "garbage\n";
      append_raw path
        (Causality.event_to_string (List.hd sample_events) ^ "\n");
      match Causality.load ~path with
      | Ok _ -> Alcotest.fail "mid-file corruption loaded"
      | Error e ->
          check_bool "Bad_spec" true (e.Error.kind = Error.Bad_spec))

let test_windows_torn_tail () =
  with_temp_file (fun path ->
      let ws =
        [
          {
            Windowed.index = 0;
            start_slot = 0;
            end_slot = 1000;
            jain = 1.0;
            gap = 0.0;
            arrivals = 10;
            delivered = 9;
            dropped = 1;
            backlog = 0;
            loss = 0.1;
          };
        ]
      in
      Windowed.write ~path ~window:1000 ws;
      append_raw path "{\"i\":1,\"s\":10";
      match Windowed.load ~path with
      | Ok c ->
          check_int "window param" 1000 c.Windowed.window;
          check_int "torn tail dropped" 1 (List.length c.Windowed.windows)
      | Error e -> Alcotest.failf "load refused torn tail: %s" (Error.to_string e))

let test_windows_wrong_schema () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "{\"schema\":\"wfs-trace/1\",\"window\":5}\n";
      close_out oc;
      match Windowed.load ~path with
      | Ok _ -> Alcotest.fail "wrong schema loaded"
      | Error e ->
          check_bool "Bad_spec" true (e.Error.kind = Error.Bad_spec))

(* --- windowed collector over a real run --- *)

let single_cell_windows ~horizon ~window =
  let spec = Spec.make ~seed:7 ~horizon ~sched:"SwapA-P" (Spec.example 1) in
  let entry = Registry.get spec.Spec.sched in
  let setups = Exec.setups_of spec in
  let flows = Wfs_core.Presets.flows_of setups in
  let sched = entry.Registry.make flows in
  let weights =
    Array.map (fun (f : Wfs_core.Params.flow) -> f.weight) flows
  in
  let w = Windowed.create ~weights ~window in
  let metrics =
    C.v ~horizon setups
    |> C.with_predictor entry.Registry.predictor
    |> C.with_hook (Windowed.hook w)
    |> C.run sched
  in
  Windowed.flush w ~slot:(horizon - 1) ~metrics;
  (Windowed.windows w, metrics)

let test_windowed_collector_boundaries () =
  let horizon = 5000 and window = 1000 in
  let ws, metrics = single_cell_windows ~horizon ~window in
  check_int "window count" (horizon / window) (List.length ws);
  List.iteri
    (fun i (w : Windowed.window) ->
      check_int "index" i w.Windowed.index;
      check_int "start" (i * window) w.Windowed.start_slot;
      check_int "end" ((i + 1) * window) w.Windowed.end_slot)
    ws;
  let total_delivered = ref 0 and total_arrivals = ref 0 in
  for f = 0 to M.n_flows metrics - 1 do
    total_delivered := !total_delivered + M.delivered metrics ~flow:f;
    total_arrivals := !total_arrivals + M.arrivals metrics ~flow:f
  done;
  check_int "delivered deltas sum to the run total" !total_delivered
    (List.fold_left (fun a (w : Windowed.window) -> a + w.Windowed.delivered) 0 ws);
  check_int "arrival deltas sum to the run total" !total_arrivals
    (List.fold_left (fun a (w : Windowed.window) -> a + w.Windowed.arrivals) 0 ws)

let test_windowed_partial_flush () =
  (* A horizon that is not a multiple of the window leaves a trailing
     partial window; flush must close it with the true span. *)
  let horizon = 2500 and window = 1000 in
  let ws, _ = single_cell_windows ~horizon ~window in
  check_int "window count" 3 (List.length ws);
  let last = List.nth ws 2 in
  check_int "partial start" 2000 last.Windowed.start_slot;
  check_int "partial end" 2500 last.Windowed.end_slot

let test_windowed_rejects_bad_config () =
  Alcotest.check_raises "window < 1"
    (Error.Error
       (Error.v Error.Bad_config ~who:"Windowed.create" "window must be >= 1"))
    (fun () -> ignore (Windowed.create ~weights:[| 1.0 |] ~window:0))

(* --- skip telemetry: observe the fast path without degenerating it --- *)

let macro_spec ~horizon =
  Spec.make ~seed:11 ~horizon ~sched:"SwapA-P" (Spec.example 1)

(* [attach] adds one more step, given the run's scheduler. *)
let run_with ?skip_stats ~fast_path ?(attach = fun _ c -> c) ~horizon () =
  let spec = macro_spec ~horizon in
  let entry = Registry.get spec.Spec.sched in
  let setups = Exec.setups_of spec in
  let sched = entry.Registry.make (Wfs_core.Presets.flows_of setups) in
  C.v ~horizon setups
  |> C.with_predictor entry.Registry.predictor
  |> C.with_fast_path fast_path
  |> (match skip_stats with Some k -> C.with_skip_stats k | None -> Fun.id)
  |> attach sched
  |> C.run sched

let test_skip_stats_stays_compressed () =
  let horizon = 20_000 in
  let bare = run_with ~fast_path:true ~horizon () in
  let k = Skip_stats.create () in
  let observed = run_with ~skip_stats:k ~fast_path:true ~horizon () in
  check_bool "metrics identical under the collector" true
    (String.equal
       (Json.to_string ~pretty:false (M.to_json bare))
       (Json.to_string ~pretty:false (M.to_json observed)));
  check_bool "stayed compressed" true (Skip_stats.compressed k);
  check_int "engine saw the whole horizon" horizon (Skip_stats.engine_slots k);
  check_int "no reference slots" 0 (Skip_stats.reference_slots k);
  check_bool "absorbed something" true (Skip_stats.absorbed_slots k > 0);
  check_bool "absorbed bounded by horizon" true
    (Skip_stats.absorbed_slots k <= horizon);
  check_bool "max window bounded" true
    (Skip_stats.max_window k <= horizon)

(* Every per-slot attachment puts the whole run on the reference loop. *)
let test_skip_stats_sees_degeneration () =
  let horizon = 2000 in
  let n_flows = Array.length (Exec.setups_of (macro_spec ~horizon)) in
  List.iter
    (fun (name, attach) ->
      let k = Skip_stats.create () in
      ignore (run_with ~skip_stats:k ~fast_path:true ~attach ~horizon ());
      check_bool (name ^ " degenerated the run") false (Skip_stats.compressed k);
      check_int (name ^ ": all slots on the reference loop") horizon
        (Skip_stats.reference_slots k);
      check_int (name ^ ": no engine slots") 0 (Skip_stats.engine_slots k))
    [
      ( "a plain hook",
        fun _ ->
          C.with_hook (fun ~slot:_ ~selected:_ ~states:_ ~metrics:_ ~predicted_good:_ -> ()) );
      ("the invariant hook", fun sched -> C.with_hook (Wfs_core.Invariant.hook sched));
      ("a probe hook", fun sched -> C.with_hook (Wfs_obs.Probe.create ~n_flows sched));
      ("an enabled trace", fun _ -> C.with_trace (Wfs_core.Tracelog.create ()));
      ( "a profiler",
        fun _ -> C.with_profiler (Wfs_obs.Profiler.hooks (Wfs_obs.Profiler.create ())) );
    ]

let test_skip_stats_merge_and_json () =
  let a = Skip_stats.create () and b = Skip_stats.create () in
  Skip_stats.note_engine a ~slots:100;
  Skip_stats.note_window a ~slots:40;
  Skip_stats.note_window a ~slots:25;
  Skip_stats.note_declined a;
  Skip_stats.note_engine b ~slots:50;
  Skip_stats.note_window b ~slots:50;
  Skip_stats.note_reference b ~slots:10;
  let m = Skip_stats.merge a b in
  check_int "absorbed windows" 3 (Skip_stats.absorbed_windows m);
  check_int "absorbed slots" 115 (Skip_stats.absorbed_slots m);
  check_int "declined" 1 (Skip_stats.declined_windows m);
  check_int "engine" 150 (Skip_stats.engine_slots m);
  check_int "reference" 10 (Skip_stats.reference_slots m);
  check_int "max window" 50 (Skip_stats.max_window m);
  check_bool "merge with reference slots is not compressed" false
    (Skip_stats.compressed m);
  (match Skip_stats.of_json (Skip_stats.to_json m) with
  | Some m' ->
      check_int "json round-trip absorbed" (Skip_stats.absorbed_slots m)
        (Skip_stats.absorbed_slots m');
      check_int "json round-trip max" (Skip_stats.max_window m)
        (Skip_stats.max_window m')
  | None -> Alcotest.fail "skip stats json round-trip failed");
  check_bool "merge_all [] is None" true (Skip_telemetry.merge_all [] = None);
  match Skip_telemetry.merge_all [ a; b ] with
  | Some m2 ->
      check_int "merge_all agrees with merge" (Skip_stats.absorbed_slots m)
        (Skip_stats.absorbed_slots m2)
  | None -> Alcotest.fail "merge_all dropped collectors"

(* --- traced topology runs: bare identity and jobs invariance --- *)

let topo_spec ?faults () =
  let tp = Spec.topo ~cells:3 ~mobility:0.02 ~epoch:250 in
  let tp = match faults with Some p -> Spec.with_faults p tp | None -> tp in
  Spec.with_topo tp
    (Spec.make ~seed:42 ~horizon:2000 ~sched:"SwapA-P" (Spec.example 1))

let fault_plan =
  Spec.faults ~crash:0.05 ~recover:0.5 ~lose:0.1 ~corrupt:0.1 ~blackout:0.05
    ~blackout_len:100 ~exn:0.05 ~persist:0.25 ~budget:2 ()

(* The same wiring wfs_sim uses for a traced topology run: per-cell Mux
   parts via the tap, causality at the barrier, windows from peek_metrics. *)
let run_traced ~jobs ~jsonl ~csv ~causality:cpath ~windows:wpath spec =
  let cells =
    match spec.Spec.topo with Some tp -> tp.Spec.cells | None -> 1
  in
  let mux = Mux.create ~cells ~part_base:jsonl () in
  let cause = Causality.create () in
  let tap =
    {
      Cell.on_roster =
        (fun ~cell ~slot ~gids -> Mux.note_roster mux ~cell ~slot ~gids);
      probe =
        (fun ~cell ~n_flows sched -> Some (Mux.probe mux ~cell ~n_flows sched));
      on_carry =
        (fun ~cell ~slot ~gid ~carried ~accepted ->
          Causality.record cause
            (Causality.Carry { slot; flow = gid; cell; carried; accepted }));
    }
  in
  match Topology.of_spec ~tap ~causality:cause spec with
  | t ->
      let w = Windowed.create ~weights:(Topology.weights t) ~window:500 in
      let on_barrier ~slot =
        Windowed.observe w ~slot:(slot - 1) ~metrics:(Topology.peek_metrics t)
      in
      Topology.run ~jobs ~on_barrier t;
      let metrics = Topology.metrics t in
      Windowed.flush w ~slot:(spec.Spec.horizon - 1) ~metrics;
      Windowed.write ~path:wpath ~window:500 (Windowed.windows w);
      Causality.write ~path:cpath (Causality.events cause);
      Mux.finish mux ~n_flows:(Topology.n_flows t) ~jsonl ~csv ();
      metrics
  | exception e ->
      Mux.abort mux;
      raise e

let run_bare ~jobs spec =
  let t = Topology.of_spec spec in
  Topology.run ~jobs t;
  Topology.metrics t

let with_traced_outputs f =
  with_temp_file ~suffix:".jsonl" (fun jsonl ->
      with_temp_file ~suffix:".csv" (fun csv ->
        with_temp_file ~suffix:".cause" (fun cpath ->
          with_temp_file ~suffix:".win" (fun wpath ->
            f ~jsonl ~csv ~cpath ~wpath))))

let test_traced_equals_bare () =
  List.iter
    (fun faults ->
      let spec = topo_spec ?faults () in
      let bare = run_bare ~jobs:2 spec in
      with_traced_outputs (fun ~jsonl ~csv ~cpath ~wpath ->
          let traced =
            run_traced ~jobs:2 ~jsonl ~csv ~causality:cpath ~windows:wpath spec
          in
          ignore csv;
          check_bool "tracing does not perturb the run" true
            (String.equal
               (Json.to_string ~pretty:false (M.to_json bare))
               (Json.to_string ~pretty:false (M.to_json traced)))))
    [ None; Some fault_plan ]

let test_traced_jobs_invariance () =
  List.iter
    (fun faults ->
      let spec = topo_spec ?faults () in
      let outputs =
        List.map
          (fun jobs ->
            let dir = Filename.temp_file "wfs_xray_jobs" "" in
            Sys.remove dir;
            Unix.mkdir dir 0o755;
            let jsonl = Filename.concat dir "t.jsonl"
            and csv = Filename.concat dir "t.csv"
            and cpath = Filename.concat dir "c.jsonl"
            and wpath = Filename.concat dir "w.jsonl" in
            ignore
              (run_traced ~jobs ~jsonl ~csv ~causality:cpath ~windows:wpath
                 spec);
            let all =
              ( read_file jsonl,
                read_file csv,
                read_file cpath,
                read_file wpath )
            in
            List.iter Sys.remove [ jsonl; csv; cpath; wpath ];
            Unix.rmdir dir;
            all)
          [ 1; 2; 4 ]
      in
      match outputs with
      | (j1, c1, ca1, w1) :: rest ->
          List.iteri
            (fun i (j, c, ca, w) ->
              let at = Printf.sprintf "jobs variant %d" (i + 1) in
              check_bool (at ^ " jsonl") true (String.equal j1 j);
              check_bool (at ^ " csv") true (String.equal c1 c);
              check_bool (at ^ " causality") true (String.equal ca1 ca);
              check_bool (at ^ " windows") true (String.equal w1 w))
            rest
      | [] -> assert false)
    [ None; Some fault_plan ]

let test_merged_stream_is_well_formed () =
  let spec = topo_spec ~faults:fault_plan () in
  with_traced_outputs (fun ~jsonl ~csv ~cpath ~wpath ->
      ignore (run_traced ~jobs:2 ~jsonl ~csv ~causality:cpath ~windows:wpath spec);
      (match Mux.load ~path:jsonl with
      | Ok c ->
          check_int "cells" 3 c.Mux.cells;
          check_bool "entries present" true (c.Mux.entries <> []);
          (* Merge order: slots nondecreasing, ties broken by cell. *)
          let ok, _ =
            List.fold_left
              (fun (ok, prev) e ->
                let key = (Mux.entry_slot e, Mux.entry_cell e) in
                (ok && (prev = None || Some key >= prev), Some key))
              (true, None) c.Mux.entries
          in
          check_bool "merge order (slot, cell)" true ok;
          (* Rosters precede their cell's samples: a sample must resolve
             through an already-seen roster. *)
          let seen = Hashtbl.create 8 in
          List.iter
            (function
              | Mux.Roster { cell; _ } -> Hashtbl.replace seen cell ()
              | Mux.Sample { cell; _ } ->
                  check_bool "sample after roster" true (Hashtbl.mem seen cell))
            c.Mux.entries;
          (* Part files are gone after finish. *)
          for cell = 0 to 2 do
            check_bool "part removed" false
              (Sys.file_exists (Printf.sprintf "%s.part%d" jsonl cell))
          done
      | Error e -> Alcotest.failf "mux load: %s" (Error.to_string e));
      (* Torn tail on the merged stream follows the Journal convention. *)
      let before =
        match Mux.load ~path:jsonl with
        | Ok c -> List.length c.Mux.entries
        | Error _ -> assert false
      in
      append_raw jsonl "{\"cell\":0,\"slot\":99";
      (match Mux.load ~path:jsonl with
      | Ok c -> check_int "torn tail dropped" before (List.length c.Mux.entries)
      | Error e -> Alcotest.failf "torn tail refused: %s" (Error.to_string e));
      match Causality.load ~path:cpath with
      | Ok events ->
          let moved = Causality.flows events in
          List.iter
            (fun flow ->
              let lag, credit = Causality.truncation events ~flow in
              check_bool "truncated lag is nonnegative" true (lag >= 0.);
              check_bool "truncated credit is nonnegative" true (credit >= 0))
            moved
      | Error e -> Alcotest.failf "causality load: %s" (Error.to_string e))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_event_roundtrip;
    QCheck_alcotest.to_alcotest prop_window_roundtrip;
    QCheck_alcotest.to_alcotest prop_entry_roundtrip;
    QCheck_alcotest.to_alcotest prop_causality_file_roundtrip;
    Alcotest.test_case "causality: torn tail tolerated" `Quick
      test_causality_torn_tail;
    Alcotest.test_case "causality: mid-file corruption refused" `Quick
      test_causality_corruption_refused;
    Alcotest.test_case "windows: torn tail tolerated" `Quick
      test_windows_torn_tail;
    Alcotest.test_case "windows: wrong schema refused" `Quick
      test_windows_wrong_schema;
    Alcotest.test_case "windowed collector closes tumbling boundaries" `Quick
      test_windowed_collector_boundaries;
    Alcotest.test_case "windowed collector flushes a trailing partial" `Quick
      test_windowed_partial_flush;
    Alcotest.test_case "windowed collector validates its config" `Quick
      test_windowed_rejects_bad_config;
    Alcotest.test_case "skip stats observe a compressed run" `Quick
      test_skip_stats_stays_compressed;
    Alcotest.test_case "skip stats witness degeneration" `Quick
      test_skip_stats_sees_degeneration;
    Alcotest.test_case "skip stats merge and JSON round-trip" `Quick
      test_skip_stats_merge_and_json;
    Alcotest.test_case "traced topology equals bare (clean and faulted)"
      `Quick test_traced_equals_bare;
    Alcotest.test_case "traced topology is jobs-invariant" `Quick
      test_traced_jobs_invariance;
    Alcotest.test_case "merged stream is well-formed" `Quick
      test_merged_stream_is_well_formed;
  ]
