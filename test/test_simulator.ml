(* Tests for the slotted simulator driver: arrival/transmission accounting,
   drop policies, reproducibility, metrics and end-of-slot hooks. *)

module Core = Wfs_core
module Rng = Wfs_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setup ?(drop = Core.Params.No_drop) ~source ~channel id =
  {
    Core.Simulator.flow = Core.Params.flow ~id ~weight:1. ~drop ();
    source;
    channel;
  }

let cbr interarrival = Wfs_traffic.Cbr.create ~interarrival ()

let wrr_sched flows = Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr flows)

module C = Core.Sim_config

let test_single_flow_error_free () =
  let setups = [| setup 0 ~source:(cbr 2.) ~channel:(Wfs_channel.Error_free.create ()) |] in
  let m = C.v ~horizon:100 setups |> C.run (wrr_sched (Core.Presets.flows_of setups)) in
  check_int "all arrivals" 50 (Core.Metrics.arrivals m ~flow:0);
  check_int "all delivered" 50 (Core.Metrics.delivered m ~flow:0);
  check_int "no drops" 0 (Core.Metrics.dropped m ~flow:0);
  Alcotest.(check (float 1e-9)) "zero delay" 0. (Core.Metrics.mean_delay m ~flow:0);
  check_int "half the slots idle" 50 (Core.Metrics.idle_slots m)

let test_failed_attempts_and_retx_drop () =
  (* Channel bad in slots 0..9; blind transmission burns 3 attempts and
     drops the packet (Retx_limit 2). *)
  let source = Wfs_traffic.Trace_source.of_slots [ 0 ] in
  let channel = Wfs_channel.Periodic_ch.bad_burst ~start:0 ~length:10 in
  let setups = [| setup 0 ~drop:(Core.Params.Retx_limit 2) ~source ~channel |] in
  let m =
    C.v ~horizon:10 setups
    |> C.with_predictor Wfs_channel.Predictor.Blind
    |> C.run
         (Core.Wps.instance
            (Core.Wps.create ~params:Core.Params.blind_wrr
               (Core.Presets.flows_of setups)))
  in
  check_int "three failed attempts" 3 (Core.Metrics.failed_attempts m ~flow:0);
  check_int "dropped after limit" 1 (Core.Metrics.dropped m ~flow:0);
  check_int "nothing delivered" 0 (Core.Metrics.delivered m ~flow:0)

let test_delay_bound_drop () =
  (* A packet stuck behind an error burst is dropped once its age exceeds
     the bound, even though it never transmitted. *)
  let source = Wfs_traffic.Trace_source.of_slots [ 0 ] in
  let channel = Wfs_channel.Periodic_ch.bad_burst ~start:0 ~length:50 in
  let setups = [| setup 0 ~drop:(Core.Params.Delay_bound 5) ~source ~channel |] in
  let m =
    C.v ~horizon:20 setups
    |> C.with_predictor Wfs_channel.Predictor.Perfect
    |> C.run (wrr_sched (Core.Presets.flows_of setups))
  in
  check_int "delay-bound drop" 1 (Core.Metrics.dropped m ~flow:0);
  check_int "no attempts (perfect skip)" 0 (Core.Metrics.failed_attempts m ~flow:0)

let test_retx_or_delay_policy () =
  let source = Wfs_traffic.Trace_source.of_slots [ 0 ] in
  let channel = Wfs_channel.Periodic_ch.bad_burst ~start:0 ~length:50 in
  let setups =
    [| setup 0 ~drop:(Core.Params.Retx_or_delay (100, 5)) ~source ~channel |]
  in
  let m =
    C.v ~horizon:20 setups
    |> C.with_predictor Wfs_channel.Predictor.Blind
    |> C.run
         (Core.Wps.instance
            (Core.Wps.create ~params:Core.Params.blind_wrr
               (Core.Presets.flows_of setups)))
  in
  (* Delay bound fires first (age > 5). *)
  check_int "dropped by delay bound" 1 (Core.Metrics.dropped m ~flow:0);
  check_bool "attempted a few times first" true
    (Core.Metrics.failed_attempts m ~flow:0 >= 5)

let test_deterministic_given_seed () =
  let run () =
    let setups = Core.Presets.example1 ~seed:123 () in
    let m =
      C.v ~horizon:5_000 setups
      |> C.run
           (Core.Presets.scheduler Core.Presets.Swapa (Core.Presets.flows_of setups))
    in
    ( Core.Metrics.mean_delay m ~flow:0,
      Core.Metrics.delivered m ~flow:0,
      Core.Metrics.dropped m ~flow:0 )
  in
  let a = run () and b = run () in
  check_bool "bitwise reproducible" true (a = b)

let test_seed_changes_sample_path () =
  let run seed =
    let setups = Core.Presets.example1 ~seed () in
    let m =
      C.v ~horizon:5_000 setups
      |> C.run
           (Core.Presets.scheduler Core.Presets.Swapa (Core.Presets.flows_of setups))
    in
    Core.Metrics.mean_delay m ~flow:0
  in
  check_bool "different seeds differ" true (run 1 <> run 2)

let test_hooks_called_every_slot () =
  let setups = [| setup 0 ~source:(cbr 2.) ~channel:(Wfs_channel.Error_free.create ()) |] in
  (* Each hook logs (hook, slot); two hooks must alternate, first-added
     first, once per slot. *)
  let calls = ref [] in
  let hook name ~slot ~selected:_ ~states:_ ~metrics:_ ~predicted_good:_ =
    calls := (name, slot) :: !calls
  in
  ignore
    (C.v ~horizon:123 setups
    |> C.with_hook (hook "a")
    |> C.with_hook (hook "b")
    |> C.run (wrr_sched (Core.Presets.flows_of setups)));
  Alcotest.(check (list (pair string int)))
    "each hook once per slot, in the order added"
    (List.concat_map (fun slot -> [ ("a", slot); ("b", slot) ]) (List.init 123 Fun.id))
    (List.rev !calls)

let test_trace_records_lifecycle () =
  let trace = Wfs_core.Tracelog.create () in
  let source = Wfs_traffic.Trace_source.of_slots [ 0; 1 ] in
  let setups = [| setup 0 ~source ~channel:(Wfs_channel.Error_free.create ()) |] in
  ignore
    (C.v ~horizon:5 setups
    |> C.with_trace trace
    |> C.run (wrr_sched (Core.Presets.flows_of setups)));
  let count p = Wfs_core.Tracelog.count trace p in
  check_int "2 arrivals" 2
    (count (fun e ->
         match e.Wfs_core.Tracelog.event with
         | Wfs_core.Tracelog.Arrival _ -> true
         | _ -> false));
  check_int "2 deliveries" 2
    (count (fun e ->
         match e.Wfs_core.Tracelog.event with
         | Wfs_core.Tracelog.Transmit_ok _ -> true
         | _ -> false));
  check_int "3 idle slots" 3
    (count (fun e -> e.Wfs_core.Tracelog.event = Wfs_core.Tracelog.Slot_idle))

let test_metrics_backlog_remaining () =
  (* Arrivals that neither got delivered nor dropped remain backlogged. *)
  let source = Wfs_traffic.Trace_source.create [ (0, 5) ] in
  let channel = Wfs_channel.Periodic_ch.bad_burst ~start:0 ~length:100 in
  let setups = [| setup 0 ~source ~channel |] in
  let m =
    C.v ~horizon:10 setups
    |> C.with_predictor Wfs_channel.Predictor.Perfect
    |> C.run (wrr_sched (Core.Presets.flows_of setups))
  in
  check_int "all 5 still queued" 5 (Core.Metrics.backlog_remaining m ~flow:0)

let test_buffer_overflow_drops () =
  (* Buffer of 3: a burst of 10 packets into a blocked channel keeps 3 and
     drops 7 at the door. *)
  let setups () =
    [|
      {
        Core.Simulator.flow =
          Core.Params.flow ~id:0 ~weight:1. ~buffer:3 ();
        source = Wfs_traffic.Trace_source.create [ (0, 10) ];
        channel = Wfs_channel.Periodic_ch.bad_burst ~start:0 ~length:100;
      };
    |]
  in
  let run ?trace () =
    let setups = setups () in
    let sched = wrr_sched (Core.Presets.flows_of setups) in
    ( C.v ~horizon:5 setups
      |> C.with_predictor Wfs_channel.Predictor.Perfect
      |> (match trace with Some tr -> C.with_trace tr | None -> Fun.id)
      |> C.run sched,
      sched )
  in
  let m, sched = run () in
  check_int "7 dropped at the buffer" 7 (Core.Metrics.dropped m ~flow:0);
  check_int "3 still queued" 3 (Core.Metrics.backlog_remaining m ~flow:0);
  (* The admitted packets are the batch's prefix. *)
  let q = sched.packets 0 in
  let queued = ref [] in
  while not (Wfs_traffic.Packet.Ring.is_empty q) do
    queued := Wfs_traffic.Packet.Ring.head_seq q :: !queued;
    sched.drop_head ~flow:0
  done;
  Alcotest.(check (list int)) "queued seqs" [ 0; 1; 2 ] (List.rev !queued);
  (* A traced run records each packet's Arrival, then its Drop. *)
  let trace = Core.Tracelog.create () in
  ignore (run ~trace ());
  let events =
    List.filter_map
      (fun { Core.Tracelog.event; _ } ->
        match event with
        | Core.Tracelog.Arrival { seq; _ } -> Some (Printf.sprintf "A%d" seq)
        | Core.Tracelog.Drop { seq; _ } -> Some (Printf.sprintf "D%d" seq)
        | _ -> None)
      (Core.Tracelog.events trace)
  in
  Alcotest.(check (list string))
    "arrival and drop events"
    ([ "A0"; "A1"; "A2" ]
    @ List.concat_map
        (fun k -> [ Printf.sprintf "A%d" k; Printf.sprintf "D%d" k ])
        [ 3; 4; 5; 6; 7; 8; 9 ])
    events

let test_scenario_buffer_attribute () =
  let s =
    Core.Scenario.parse "flow buffer=5 source=cbr:2 channel=good\n"
  in
  let flows = Core.Presets.flows_of s.Core.Scenario.setups in
  check_bool "buffer parsed" true (flows.(0).Core.Params.buffer = Some 5)

let test_config_validation () =
  let setups = [| setup 0 ~source:(cbr 2.) ~channel:(Wfs_channel.Error_free.create ()) |] in
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Sim_config.v: negative horizon") (fun () ->
      ignore (C.v ~horizon:(-1) setups));
  Alcotest.check_raises "no flows"
    (Invalid_argument "Sim_config.v: no flows") (fun () ->
      ignore (C.v ~horizon:1 [||]));
  Alcotest.check_raises "flow ids out of order"
    (Invalid_argument "Sim_config.v: flow ids must be 0..n-1") (fun () ->
      ignore
        (C.v ~horizon:1
           [| setup 1 ~source:(cbr 2.) ~channel:(Wfs_channel.Error_free.create ()) |]))

let test_metrics_drop_share () =
  (* drop_share is per settled packet, loss per arrival: a saturated flow
     with 10 arrivals, 2 delivered, 1 dropped has loss 0.1 but drop share
     1/3. *)
  let m = Core.Metrics.create ~n_flows:1 () in
  Core.Metrics.on_arrivals m ~flow:0 ~count:10;
  Core.Metrics.on_deliver m ~flow:0 ~delay:1;
  Core.Metrics.on_deliver m ~flow:0 ~delay:2;
  Core.Metrics.on_drop m ~flow:0;
  Alcotest.(check (float 1e-9)) "loss" 0.1 (Core.Metrics.loss m ~flow:0);
  Alcotest.(check (float 1e-9)) "drop share" (1. /. 3.)
    (Core.Metrics.drop_share m ~flow:0);
  check_int "backlog" 7 (Core.Metrics.backlog_remaining m ~flow:0)

let test_metrics_percentile_requires_histograms () =
  let m = Core.Metrics.create ~n_flows:1 () in
  (* Missing histograms is a configuration mistake and goes through the
     typed taxonomy; an empty histogram is an empty measurement → nan. *)
  (match Core.Metrics.delay_percentile m ~flow:0 ~p:50. with
  | _ -> Alcotest.fail "expected Bad_config"
  | exception Wfs_util.Error.Error e ->
      Alcotest.(check string)
        "kind" "bad-config"
        (Wfs_util.Error.kind_to_string e.Wfs_util.Error.kind));
  let mh = Core.Metrics.create ~histograms:true ~n_flows:1 () in
  Alcotest.(check bool)
    "empty histogram is nan" true
    (Float.is_nan (Core.Metrics.delay_percentile mh ~flow:0 ~p:50.))

let test_scheduler_misuse_raises () =
  (* complete/drop_head on an empty queue is a contract violation and must
     fail loudly in both schedulers. *)
  let flows = [| Core.Params.flow ~id:0 ~weight:1. () |] in
  let wps = Core.Wps.instance (Core.Wps.create flows) in
  Alcotest.check_raises "wps complete empty"
    (Invalid_argument "Wps.complete: empty queue") (fun () ->
      wps.complete ~flow:0);
  let iwfq = Core.Iwfq.instance (Core.Iwfq.create flows) in
  Alcotest.check_raises "iwfq complete empty"
    (Invalid_argument "Iwfq.complete: empty queue") (fun () ->
      iwfq.complete ~flow:0)

let test_presets_flow_shapes () =
  check_int "example1 has 2 flows" 2 (Array.length (Core.Presets.example1 ~seed:1 ()));
  check_int "example3 has 3 flows" 3 (Array.length (Core.Presets.example3 ~seed:1 ()));
  check_int "example4 has 5 flows" 5 (Array.length (Core.Presets.example4 ~seed:1 ()));
  check_int "example6 has 5 flows" 5 (Array.length (Core.Presets.example6 ~seed:1 ()));
  check_int "nine table-1 rows" 9 (List.length Core.Presets.table1_algorithms);
  check_int "registry mirrors table 1" 9 (List.length (Core.Registry.table1 ()));
  check_int "registry extended grid" 11
    (List.length (Core.Registry.table1_extended ()))

let test_presets_common_random_numbers () =
  (* Two constructions from the same seed produce identical arrivals. *)
  let totals setups =
    Array.map
      (fun s ->
        let sum = ref 0 in
        for slot = 0 to 999 do
          sum := !sum + Wfs_traffic.Arrival.arrivals s.Core.Simulator.source ~slot
        done;
        !sum)
      setups
  in
  check_bool "same seed, same arrivals" true
    (totals (Core.Presets.example4 ~seed:9 ()) = totals (Core.Presets.example4 ~seed:9 ()))

let test_algorithm_names () =
  Alcotest.(check string) "blind" "Blind WRR"
    (Core.Presets.algorithm_name Core.Presets.Blind_wrr Core.Presets.Predicted);
  Alcotest.(check string) "swapa-p" "SwapA-P"
    (Core.Presets.algorithm_name Core.Presets.Swapa Core.Presets.Predicted);
  Alcotest.(check string) "iwfq-i" "IWFQ-I"
    (Core.Presets.algorithm_name Core.Presets.Iwfq_alg Core.Presets.Ideal)

let suite =
  [
    ("single flow error-free", `Quick, test_single_flow_error_free);
    ("failed attempts and retx drop", `Quick, test_failed_attempts_and_retx_drop);
    ("delay-bound drop", `Quick, test_delay_bound_drop);
    ("retx-or-delay policy", `Quick, test_retx_or_delay_policy);
    ("deterministic given seed", `Quick, test_deterministic_given_seed);
    ("seed changes sample path", `Quick, test_seed_changes_sample_path);
    ("observer per slot", `Quick, test_hooks_called_every_slot);
    ("trace lifecycle", `Quick, test_trace_records_lifecycle);
    ("backlog remaining", `Quick, test_metrics_backlog_remaining);
    ("buffer overflow drops", `Quick, test_buffer_overflow_drops);
    ("scenario buffer attribute", `Quick, test_scenario_buffer_attribute);
    ("config validation", `Quick, test_config_validation);
    ("metrics drop share", `Quick, test_metrics_drop_share);
    ("metrics percentile guard", `Quick, test_metrics_percentile_requires_histograms);
    ("scheduler misuse raises", `Quick, test_scheduler_misuse_raises);
    ("preset shapes", `Quick, test_presets_flow_shapes);
    ("preset common random numbers", `Quick, test_presets_common_random_numbers);
    ("algorithm names", `Quick, test_algorithm_names);
  ]
