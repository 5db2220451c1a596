(* End-to-end integration tests: the paper's qualitative claims hold on
   moderate-horizon runs of the full pipeline (presets -> simulator ->
   metrics).  These mirror the conclusions drawn from Tables 1-11 without
   pinning exact numbers. *)

module Core = Wfs_core
module P = Core.Presets

let check_bool = Alcotest.(check bool)

let horizon = 60_000
let seed = 2024

(* Schedulers are resolved by registry name: the entry carries both the
   constructor and the channel knowledge ("-I"/"-P") of the variant. *)
let run ?(horizon = horizon) ?limits ~setups name =
  let entry = Core.Registry.get name in
  let flows = P.flows_of setups in
  let sched = entry.Core.Registry.make ?limits flows in
  Core.Sim_config.v ~horizon setups
  |> Core.Sim_config.with_predictor entry.Core.Registry.predictor
  |> Core.Sim_config.run sched

let example1_metrics ?sum name = run ~setups:(P.example1 ?sum ~seed ()) name

let test_blind_lossy_others_lossless () =
  let blind = example1_metrics "Blind WRR" in
  check_bool "blind has real loss" true (Core.Metrics.loss blind ~flow:0 > 0.05);
  List.iter
    (fun name ->
      let m = example1_metrics name in
      check_bool "ideal-information variants lossless" true
        (Core.Metrics.loss m ~flow:0 < 1e-9))
    [ "WRR-I"; "NoSwap-I"; "SwapW-I"; "SwapA-I" ]

let test_credits_reduce_flow1_delay () =
  (* Table 1 ordering: compensating variants beat plain WRR for the
     errored flow. *)
  let d name = Core.Metrics.mean_delay (example1_metrics name) ~flow:0 in
  let wrr = d "WRR-I" in
  let noswap = d "NoSwap-I" in
  let swapa = d "SwapA-I" in
  check_bool "noswap < wrr" true (noswap < wrr);
  check_bool "swapa < wrr" true (swapa < wrr);
  check_bool "swapa <= noswap (debits help)" true (swapa <= noswap +. 0.2)

let test_compensation_costs_flow2_little () =
  (* The error-free flow pays only slightly (paper: d2 rises ~0 -> ~2). *)
  let d2 name = Core.Metrics.mean_delay (example1_metrics name) ~flow:1 in
  check_bool "flow2 cost bounded" true (d2 "SwapA-I" -. d2 "WRR-I" < 3.)

let test_prediction_worse_than_oracle () =
  let d name = Core.Metrics.mean_delay (example1_metrics name) ~flow:0 in
  check_bool "one-step within 2x of oracle on bursty channel" true
    (d "SwapA-P" < 2. *. d "SwapA-I");
  check_bool "oracle at least as good" true (d "SwapA-I" <= d "SwapA-P")

let test_bernoulli_breaks_prediction () =
  (* Table 3: with pg+pe = 1 the -P variants suffer loss; the -I variants
     do not. *)
  let p = example1_metrics ~sum:1.0 "SwapA-P" in
  let i = example1_metrics ~sum:1.0 "SwapA-I" in
  check_bool "P variant drops packets" true (Core.Metrics.loss p ~flow:0 > 0.01);
  check_bool "I variant lossless" true (Core.Metrics.loss i ~flow:0 < 1e-9)

let test_burstier_channel_hurts_more () =
  let d sum = Core.Metrics.mean_delay (example1_metrics ~sum "SwapA-P") ~flow:0 in
  check_bool "bursty worse than memoryless for delay" true (d 0.1 > d 1.0)

let test_example3_swapa_trades_delay () =
  (* Table 6: SwapA-P cuts the severely errored source's delay vs WRR-P at
     slight cost to the others. *)
  let setups () = P.example3 ~seed () in
  let wrr = run ~setups:(setups ()) "WRR-P" in
  let swapa = run ~setups:(setups ()) "SwapA-P" in
  check_bool "source 1 improves" true
    (Core.Metrics.mean_delay swapa ~flow:0 < Core.Metrics.mean_delay wrr ~flow:0);
  check_bool "source 2 not wrecked" true
    (Core.Metrics.mean_delay swapa ~flow:1
    < Core.Metrics.mean_delay wrr ~flow:1 +. 3.)

let test_example4_swapa_beats_wrr_for_mmpp () =
  (* Table 8: the MMPP sources' delays improve under SwapA-P vs WRR-P,
     most dramatically for source 5 (worst channel). *)
  let setups () = P.example4 ~seed () in
  let wrr = run ~setups:(setups ()) "WRR-P" in
  let swapa = run ~setups:(setups ()) "SwapA-P" in
  check_bool "source 5 improves substantially" true
    (Core.Metrics.mean_delay swapa ~flow:4
    < 0.9 *. Core.Metrics.mean_delay wrr ~flow:4);
  check_bool "source 3 improves" true
    (Core.Metrics.mean_delay swapa ~flow:2
    <= Core.Metrics.mean_delay wrr ~flow:2 +. 0.5)

let test_example5_stable_system_equalizes () =
  (* Table 9: in a stable system WRR-P and SwapA-P are nearly identical. *)
  let setups () = P.example5 ~seed () in
  let wrr = run ~setups:(setups ()) "WRR-P" in
  let swapa = run ~setups:(setups ()) "SwapA-P" in
  for flow = 0 to 4 do
    let a = Core.Metrics.mean_delay wrr ~flow
    and b = Core.Metrics.mean_delay swapa ~flow in
    check_bool
      (Printf.sprintf "flow %d within 30%% + 1 slot" flow)
      true
      (abs_float (a -. b) <= 1. +. (0.3 *. Float.max a b))
  done

let test_example6_credit_sweep () =
  (* Table 11: SwapA-P with credits dramatically improves the bad-channel
     source's loss vs WRR-P, controllably via (D, C). *)
  let loss_f4 m = Core.Metrics.loss m ~flow:4 in
  let setups () = P.example6 ~seed () in
  let wrr = run ~setups:(setups ()) "WRR-P" in
  let swapa_full =
    run ~limits:(P.example6_limits ~d:4 ~c:4) ~setups:(setups ()) "SwapA-P"
  in
  check_bool "swapa improves worst flow's loss" true
    (loss_f4 swapa_full < loss_f4 wrr +. 0.01)

let test_iwfq_close_to_swapa_average_case () =
  (* Section 8's closing observation: WPS approximates IWFQ's average-case
     behaviour. *)
  let swapa = example1_metrics "SwapA-I" in
  let iwfq = example1_metrics "IWFQ-I" in
  let d m = Core.Metrics.mean_delay m ~flow:0 in
  check_bool "same order of magnitude" true
    (d iwfq < 2.5 *. d swapa && d swapa < 6. *. d iwfq)

let test_throughputs_match_offered_load () =
  (* In the stable Example 1, every algorithm delivers the offered load. *)
  List.iter
    (fun name ->
      let m = example1_metrics name in
      let thpt f = Core.Metrics.throughput m ~flow:f ~slots:horizon in
      check_bool "flow1 near 0.2" true (abs_float (thpt 0 -. 0.2) < 0.05);
      check_bool "flow2 near 0.5" true (abs_float (thpt 1 -. 0.5) < 0.01))
    [ "WRR-I"; "SwapA-P"; "IWFQ-P" ]

let test_mac_cell_end_to_end () =
  (* A small mixed cell through the MAC: uplink flows with error channels
     still deliver the bulk of their traffic. *)
  let rng = Wfs_util.Rng.create 99 in
  let up i = { Wfs_mac.Frame.host = i; direction = Wfs_mac.Frame.Uplink; index = 0 } in
  let down i = { Wfs_mac.Frame.host = i; direction = Wfs_mac.Frame.Downlink; index = 0 } in
  let ge seed = Wfs_channel.Gilbert_elliott.create ~rng:(Wfs_util.Rng.create seed) ~pg:0.09 ~pe:0.01 () in
  let flows =
    [|
      {
        Wfs_mac.Mac_sim.addr = up 1;
        weight = 1.;
        source = Wfs_traffic.Cbr.create ~interarrival:5. ();
        channel = ge 1;
        drop = Core.Params.Retx_limit 4;
      };
      {
        Wfs_mac.Mac_sim.addr = up 2;
        weight = 1.;
        source = Wfs_traffic.Poisson.create ~rng:(Wfs_util.Rng.create 2) ~rate:0.15;
        channel = ge 3;
        drop = Core.Params.Retx_limit 4;
      };
      {
        Wfs_mac.Mac_sim.addr = down 3;
        weight = 2.;
        source = Wfs_traffic.Cbr.create ~interarrival:3. ();
        channel = ge 5;
        drop = Core.Params.No_drop;
      };
    |]
  in
  let cfg = Wfs_mac.Mac_sim.config ~rng ~horizon:20_000 flows in
  let r = Wfs_mac.Mac_sim.run cfg in
  let m = r.Wfs_mac.Mac_sim.metrics in
  for flow = 0 to 2 do
    let arr = Core.Metrics.arrivals m ~flow in
    let del = Core.Metrics.delivered m ~flow in
    check_bool
      (Printf.sprintf "flow %d delivers > 90%%" flow)
      true
      (float_of_int del > 0.9 *. float_of_int arr)
  done

let test_iwfq_error_free_matches_wireline_wfq () =
  (* Cross-validation of the two stacks: with every channel good, slotted
     IWFQ implements WFQ — its cumulative per-flow service should track the
     continuous-time wireline WFQ on the same arrivals within a couple of
     packets at every instant. *)
  let n = 3 in
  let horizon = 2_000 in
  let weights = [| 1.; 2.; 0.5 |] in
  (* A fixed random arrival pattern, integral slots. *)
  let rng = Wfs_util.Rng.create 77 in
  let arrivals =
    List.concat
      (List.init horizon (fun slot ->
           List.filter_map
             (fun flow ->
               if Wfs_util.Rng.bernoulli rng (0.25 *. weights.(flow)) then
                 Some (flow, slot)
               else None)
             [ 0; 1; 2 ]))
  in
  (* Wireline WFQ run. *)
  let wl_flows = Wfs_wireline.Flow.of_weights weights in
  let seqs = Array.make n 0 in
  let jobs =
    List.map
      (fun (flow, slot) ->
        let seq = seqs.(flow) in
        seqs.(flow) <- seq + 1;
        Wfs_wireline.Job.make ~flow ~seq ~arrival:(float_of_int slot) ~size:1.)
      arrivals
  in
  let completions =
    Wfs_wireline.Server.run ~capacity:1.
      (Wfs_wireline.Wfq.instance ~capacity:1. wl_flows)
      jobs
  in
  (* Cumulative wireline service per flow per slot boundary. *)
  let wl_service = Array.make_matrix n (horizon + 1) 0 in
  List.iter
    (fun c ->
      let f = c.Wfs_wireline.Server.job.Wfs_wireline.Job.flow in
      let t = int_of_float (ceil (c.Wfs_wireline.Server.finish -. 1e-9)) in
      if t <= horizon then wl_service.(f).(t) <- wl_service.(f).(t) + 1)
    completions;
  for f = 0 to n - 1 do
    for t = 1 to horizon do
      wl_service.(f).(t) <- wl_service.(f).(t) + wl_service.(f).(t - 1)
    done
  done;
  (* Slotted IWFQ run with the same arrivals. *)
  let flows = Array.mapi (fun id w -> Core.Params.flow ~id ~weight:w ()) weights in
  let sched = Core.Iwfq.instance (Core.Iwfq.create flows) in
  let by_slot = Hashtbl.create 256 in
  List.iter
    (fun (flow, slot) ->
      Hashtbl.replace by_slot slot
        ((flow, slot) :: Option.value ~default:[] (Hashtbl.find_opt by_slot slot)))
    arrivals;
  let iwfq_service = Array.make_matrix n (horizon + 1) 0 in
  let seqs = Array.make n 0 in
  for slot = 0 to horizon - 1 do
    List.iter
      (fun (flow, s) ->
        sched.enqueue ~slot
          (Wfs_traffic.Packet.make ~flow ~seq:seqs.(flow) ~arrival:s ());
        seqs.(flow) <- seqs.(flow) + 1)
      (List.rev (Option.value ~default:[] (Hashtbl.find_opt by_slot slot)));
    (match sched.select ~slot ~predicted_good:(fun _ -> true) with
    | Some f ->
        sched.complete ~flow:f;
        iwfq_service.(f).(slot + 1) <- 1
    | None -> ());
    sched.on_slot_end ~slot
  done;
  for f = 0 to n - 1 do
    for t = 1 to horizon do
      iwfq_service.(f).(t) <- iwfq_service.(f).(t) + iwfq_service.(f).(t - 1)
    done
  done;
  (* Compare cumulative services: within 3 packets at all times (tag ties
     break differently and the wireline server is not slot-aligned). *)
  for f = 0 to n - 1 do
    for t = 0 to horizon do
      let diff = abs (iwfq_service.(f).(t) - wl_service.(f).(t)) in
      if diff > 3 then
        Alcotest.failf "flow %d at slot %d: IWFQ %d vs WFQ %d" f t
          iwfq_service.(f).(t) wl_service.(f).(t)
    done
  done

let test_metrics_histograms () =
  let setups = P.example1 ~seed ~sum:0.1 () in
  let entry = Core.Registry.get "WPS" in
  let sched = entry.Core.Registry.make (P.flows_of setups) in
  let m =
    Core.Sim_config.v ~horizon:20_000 setups
    |> Core.Sim_config.with_predictor entry.Core.Registry.predictor
    |> Core.Sim_config.with_histograms
    |> Core.Sim_config.run sched
  in
  let p50 = Core.Metrics.delay_percentile m ~flow:0 ~p:50. in
  let p99 = Core.Metrics.delay_percentile m ~flow:0 ~p:99. in
  check_bool "percentiles ordered" true (p50 <= p99);
  check_bool "p99 within max" true (p99 <= Core.Metrics.max_delay m ~flow:0 +. 1.);
  check_bool "median below mean for heavy tail" true
    (p50 <= Core.Metrics.mean_delay m ~flow:0 +. 1.)

let suite =
  [
    ("blind lossy, others lossless", `Slow, test_blind_lossy_others_lossless);
    ("IWFQ error-free = wireline WFQ", `Slow, test_iwfq_error_free_matches_wireline_wfq);
    ("metrics histograms", `Slow, test_metrics_histograms);
    ("credits reduce errored-flow delay", `Slow, test_credits_reduce_flow1_delay);
    ("compensation cheap for clean flow", `Slow, test_compensation_costs_flow2_little);
    ("prediction near oracle when bursty", `Slow, test_prediction_worse_than_oracle);
    ("Bernoulli breaks prediction", `Slow, test_bernoulli_breaks_prediction);
    ("burstier hurts more", `Slow, test_burstier_channel_hurts_more);
    ("example 3 trade-off", `Slow, test_example3_swapa_trades_delay);
    ("example 4 SwapA wins", `Slow, test_example4_swapa_beats_wrr_for_mmpp);
    ("example 5 stability equalises", `Slow, test_example5_stable_system_equalizes);
    ("example 6 credit sweep", `Slow, test_example6_credit_sweep);
    ("IWFQ ~ SwapA average case", `Slow, test_iwfq_close_to_swapa_average_case);
    ("throughput = offered load", `Slow, test_throughputs_match_offered_load);
    ("MAC cell end-to-end", `Slow, test_mac_cell_end_to_end);
  ]
