(* Tests for the extension modules: general Markov channels, heavy-tailed
   traffic, WF2Q+, fairness measurement, ALOHA notification contention —
   plus randomized invariant properties over the core schedulers. *)

module Rng = Wfs_util.Rng
module Core = Wfs_core
module Channel = Wfs_channel.Channel
module Markov = Wfs_channel.Markov_ch

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Markov channel --- *)

let three_state =
  {
    Markov.transition =
      [|
        [| 0.9; 0.1; 0.0 |];
        [| 0.2; 0.6; 0.2 |];
        [| 0.0; 0.3; 0.7 |];
      |];
    good_prob = [| 1.0; 0.5; 0.0 |];
  }

let test_markov_validate () =
  Markov.validate three_state;
  Alcotest.check_raises "non-stochastic row"
    (Invalid_argument "Markov_ch: rows must sum to 1") (fun () ->
      Markov.validate
        { Markov.transition = [| [| 0.5; 0.4 |]; [| 0.5; 0.5 |] |];
          good_prob = [| 1.; 0. |] })

let test_markov_stationary () =
  (* Stationary distribution sums to 1 and is a fixed point. *)
  let pi = Markov.stationary three_state in
  check_bool "sums to 1" true
    (abs_float (Array.fold_left ( +. ) 0. pi -. 1.) < 1e-9);
  let next = Array.make 3 0. in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q -> next.(j) <- next.(j) +. (p *. q))
        three_state.Markov.transition.(i))
    pi;
  Array.iteri
    (fun j v -> check_bool "fixed point" true (abs_float (v -. pi.(j)) < 1e-6))
    next

let test_markov_matches_empirical () =
  let ch = Markov.create ~rng:(Rng.create 1) three_state in
  let good = ref 0 in
  let slots = 200_000 in
  for slot = 0 to slots - 1 do
    if Channel.state_is_good (Channel.advance ch ~slot) then incr good
  done;
  let expected = Markov.steady_state_good three_state in
  check_bool "empirical matches analytic" true
    (abs_float ((float_of_int !good /. float_of_int slots) -. expected) < 0.01)

let test_markov_ge_equivalence () =
  (* The GE special case has the same steady state as the closed form. *)
  let spec = Markov.of_gilbert_elliott ~pg:0.07 ~pe:0.03 in
  check_bool "PG = 0.7" true
    (abs_float (Markov.steady_state_good spec -. 0.7) < 1e-6)

(* --- Pareto on-off --- *)

let test_pareto_draw_support () =
  let rng = Rng.create 2 in
  for _ = 1 to 10_000 do
    let x = Wfs_traffic.Pareto_onoff.pareto ~rng ~shape:1.5 ~scale:3. in
    check_bool "support [scale, inf)" true (x >= 3.)
  done

let test_pareto_mean () =
  let rng = Rng.create 3 in
  let s = Wfs_util.Stats.Summary.create () in
  (* shape 2.5 has finite variance; mean = shape*scale/(shape-1) = 5/3*2 *)
  for _ = 1 to 200_000 do
    Wfs_util.Stats.Summary.add s
      (Wfs_traffic.Pareto_onoff.pareto ~rng ~shape:2.5 ~scale:2.)
  done;
  check_bool "mean near 10/3" true
    (abs_float (Wfs_util.Stats.Summary.mean s -. (10. /. 3.)) < 0.05)

let test_pareto_onoff_rate () =
  let src =
    Wfs_traffic.Pareto_onoff.create ~rng:(Rng.create 4) ~shape:2.5 ~mean_on:5.
      ~mean_off:15. ()
  in
  let total = ref 0 in
  let slots = 400_000 in
  for slot = 0 to slots - 1 do
    total := !total + Wfs_traffic.Arrival.arrivals src ~slot
  done;
  (* Nominal rate 0.25; rounding of period lengths shifts it slightly. *)
  check_bool "rate near 0.25" true
    (abs_float ((float_of_int !total /. float_of_int slots) -. 0.25) < 0.04)

let test_pareto_onoff_heavy_tail () =
  (* With shape 1.5 some ON burst should vastly exceed the mean. *)
  let src =
    Wfs_traffic.Pareto_onoff.create ~rng:(Rng.create 5) ~shape:1.5 ~mean_on:4.
      ~mean_off:12. ()
  in
  let longest = ref 0 and current = ref 0 in
  for slot = 0 to 200_000 - 1 do
    if Wfs_traffic.Arrival.arrivals src ~slot > 0 then begin
      incr current;
      if !current > !longest then longest := !current
    end
    else current := 0
  done;
  check_bool "a burst >= 20x mean occurred" true (!longest >= 80)

(* --- WF2Q+ --- *)

let job ~flow ~seq ~arrival ?(size = 1.) () =
  Wfs_wireline.Job.make ~flow ~seq ~arrival ~size

let test_wf2q_plus_weighted_shares () =
  let flows = Wfs_wireline.Flow.of_weights [| 1.; 3. |] in
  let jobs =
    List.concat
      (List.init 200 (fun seq ->
           [ job ~flow:0 ~seq ~arrival:0. (); job ~flow:1 ~seq ~arrival:0. () ]))
  in
  let completions =
    Wfs_wireline.Server.run ~capacity:1.
      (Wfs_wireline.Wf2q_plus.instance ~capacity:1. flows)
      jobs
  in
  let served = Wfs_wireline.Server.throughput_by_flow completions ~until:100. in
  check_bool "3:1 share" true
    (abs_float ((List.assoc 1 served /. List.assoc 0 served) -. 3.) < 0.2)

let test_wf2q_plus_matches_wf2q_order_when_backlogged () =
  (* All-backlogged equal-weight service orders coincide with WF2Q. *)
  let flows = Wfs_wireline.Flow.equal_weights 3 in
  let jobs =
    List.concat
      (List.init 30 (fun seq ->
           List.init 3 (fun flow -> job ~flow ~seq ~arrival:0. ())))
  in
  let order instance =
    List.map
      (fun c -> c.Wfs_wireline.Server.job.Wfs_wireline.Job.flow)
      (Wfs_wireline.Server.run ~capacity:1. instance jobs)
  in
  Alcotest.(check (list int))
    "same order as WF2Q"
    (order (Wfs_wireline.Wf2q.instance ~capacity:1. flows))
    (order (Wfs_wireline.Wf2q_plus.instance ~capacity:1. flows))

let test_wf2q_plus_virtual_time_monotone () =
  let flows = Wfs_wireline.Flow.equal_weights 2 in
  let s = Wfs_wireline.Wf2q_plus.create ~capacity:1. flows in
  let prev = ref (Wfs_wireline.Wf2q_plus.virtual_time s) in
  Wfs_wireline.Wf2q_plus.enqueue s (job ~flow:0 ~seq:0 ~arrival:0. ());
  Wfs_wireline.Wf2q_plus.enqueue s (job ~flow:1 ~seq:0 ~arrival:0. ());
  Wfs_wireline.Wf2q_plus.enqueue s (job ~flow:1 ~seq:1 ~arrival:0. ());
  for _ = 1 to 3 do
    ignore (Wfs_wireline.Wf2q_plus.dequeue s ~time:0.);
    let v = Wfs_wireline.Wf2q_plus.virtual_time s in
    check_bool "monotone" true (v >= !prev);
    prev := v
  done

(* --- Fairness --- *)

let test_jain_extremes () =
  check_float "all equal" 1. (Core.Fairness.jain [| 2.; 2.; 2. |]);
  check_float "single winner" 0.25 (Core.Fairness.jain [| 4.; 0.; 0.; 0. |]);
  check_float "empty vacuous" 1. (Core.Fairness.jain [||])

let test_max_normalized_gap () =
  check_float "weighted gap" 1.
    (Core.Fairness.max_normalized_gap ~weights:[| 1.; 2. |] ~service:[| 1.; 4. |]);
  check_float "fair is zero" 0.
    (Core.Fairness.max_normalized_gap ~weights:[| 1.; 3. |] ~service:[| 2.; 6. |])

let test_fairness_monitor_on_fair_schedule () =
  (* Two saturated flows, error-free, equal weights: windows should be
     nearly perfectly fair. *)
  let flows =
    Array.init 2 (fun id -> Core.Params.flow ~id ~weight:1. ())
  in
  let sched = Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr flows) in
  let monitor =
    Core.Fairness.Monitor.create ~weights:[| 1.; 1. |] ~window:50 ~sched
  in
  let setups =
    Array.init 2 (fun i ->
        {
          Core.Simulator.flow = flows.(i);
          source = Wfs_traffic.Cbr.create ~interarrival:1. ();
          channel = Wfs_channel.Error_free.create ();
        })
  in
  ignore
    (Core.Sim_config.v ~horizon:5_000 setups
    |> Core.Sim_config.with_hook (Core.Fairness.Monitor.hook monitor)
    |> Core.Sim_config.run sched);
  check_bool "windows sampled" true (Core.Fairness.Monitor.windows_sampled monitor > 50);
  check_bool "near-perfect Jain" true (Core.Fairness.Monitor.mean_jain monitor > 0.999);
  check_bool "tiny gap" true (Core.Fairness.Monitor.worst_gap monitor <= 1.)

let test_fairness_monitor_detects_unfairness () =
  (* Same setup but flow 1's channel is bad half the time: windows where
     both stay backlogged show a service gap under plain WRR. *)
  let flows = Array.init 2 (fun id -> Core.Params.flow ~id ~weight:1. ()) in
  let sched = Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr flows) in
  let monitor =
    Core.Fairness.Monitor.create ~weights:[| 1.; 1. |] ~window:50 ~sched
  in
  let setups =
    Array.init 2 (fun i ->
        {
          Core.Simulator.flow = flows.(i);
          source = Wfs_traffic.Cbr.create ~interarrival:1. ();
          channel =
            (if i = 1 then
               Wfs_channel.Gilbert_elliott.create ~rng:(Rng.create 9) ~pg:0.05
                 ~pe:0.05 ()
             else Wfs_channel.Error_free.create ());
        })
  in
  ignore
    (Core.Sim_config.v ~horizon:5_000 setups
    |> Core.Sim_config.with_predictor Wfs_channel.Predictor.Perfect
    |> Core.Sim_config.with_hook (Core.Fairness.Monitor.hook monitor)
    |> Core.Sim_config.run sched);
  check_bool "gap visible" true (Core.Fairness.Monitor.worst_gap monitor > 5.);
  check_bool "Jain below 1" true (Core.Fairness.Monitor.mean_jain monitor < 0.999)

(* --- ALOHA contention --- *)

let test_aloha_conservation () =
  let contenders = List.init 8 Fun.id in
  let out =
    Wfs_mac.Contention.contend_aloha ~rng:(Rng.create 10) ~minislots:4
      ~persistence:0.5 ~contenders
  in
  check_int "partition"
    (List.length contenders)
    (List.length out.Wfs_mac.Contention.winners
    + List.length out.Wfs_mac.Contention.collided
    + List.length out.Wfs_mac.Contention.deferred)

let test_aloha_statistics () =
  let rng = Rng.create 11 in
  let trials = 20_000 and m = 4 and k = 6 in
  let p = 0.5 in
  let wins = ref 0 in
  for _ = 1 to trials do
    let out =
      Wfs_mac.Contention.contend_aloha ~rng ~minislots:m ~persistence:p
        ~contenders:(List.init k Fun.id)
    in
    if List.mem 0 out.Wfs_mac.Contention.winners then incr wins
  done;
  let expected =
    Wfs_mac.Contention.aloha_success_probability ~minislots:m ~persistence:p
      ~contenders:k
  in
  check_bool "matches analytic" true
    (abs_float ((float_of_int !wins /. float_of_int trials) -. expected) < 0.01)

let test_aloha_beats_single_shot_when_crowded () =
  (* With many contenders, persistence < 1 wins more often per slot. *)
  let k = 12 and m = 4 in
  let single = Wfs_mac.Contention.success_probability ~minislots:m ~contenders:k in
  let aloha =
    Wfs_mac.Contention.aloha_success_probability ~minislots:m ~persistence:0.3
      ~contenders:k
  in
  check_bool "aloha better under load" true (aloha > single)

let test_mac_sim_with_aloha () =
  let up host = { Wfs_mac.Frame.host; direction = Wfs_mac.Frame.Uplink; index = 0 } in
  (* Ten sporadic uplink hosts: contention is the bottleneck.  Channels and
     sources are stateful, so each run builds fresh ones. *)
  let mk_flows () =
    Array.init 10 (fun i ->
        {
          Wfs_mac.Mac_sim.addr = up (i + 1);
          weight = 1.;
          source = Wfs_traffic.Poisson.create ~rng:(Rng.create (50 + i)) ~rate:0.02;
          channel = Wfs_channel.Error_free.create ();
          drop = Core.Params.No_drop;
        })
  in
  let run contention =
    let cfg =
      Wfs_mac.Mac_sim.config ~rng:(Rng.create 99) ~contention ~horizon:20_000
        (mk_flows ())
    in
    Wfs_mac.Mac_sim.run cfg
  in
  let single = run Wfs_mac.Mac_sim.Single_shot in
  let aloha = run (Wfs_mac.Mac_sim.Aloha 0.5) in
  check_bool "both deliver" true
    (Core.Metrics.delivered single.Wfs_mac.Mac_sim.metrics ~flow:0 > 0
    && Core.Metrics.delivered aloha.Wfs_mac.Mac_sim.metrics ~flow:0 > 0);
  check_bool "aloha has fewer collisions" true
    (aloha.Wfs_mac.Mac_sim.notification_collisions
    <= single.Wfs_mac.Mac_sim.notification_collisions)

(* --- CSDPS baseline --- *)

let mk_flows weights =
  Array.mapi (fun id w -> Core.Params.flow ~id ~weight:w ()) weights

let fill sched ~flow ~count =
  for seq = 0 to count - 1 do
    sched.Core.Wireless_sched.enqueue ~slot:0
      (Wfs_traffic.Packet.make ~flow ~seq ~arrival:0 ())
  done

let test_csdps_round_robin () =
  let c = Core.Csdps.create (mk_flows [| 1.; 1. |]) in
  let sched = Core.Csdps.instance c in
  fill sched ~flow:0 ~count:4;
  fill sched ~flow:1 ~count:4;
  let order =
    List.init 4 (fun slot ->
        let f = Option.get (sched.select ~slot ~predicted_good:(fun _ -> true)) in
        sched.complete ~flow:f;
        f)
  in
  Alcotest.(check (list int)) "alternates" [ 0; 1; 0; 1 ] order

let test_csdps_marks_on_failure () =
  let c = Core.Csdps.create ~backoff:5 (mk_flows [| 1.; 1. |]) in
  let sched = Core.Csdps.instance c in
  fill sched ~flow:0 ~count:4;
  fill sched ~flow:1 ~count:4;
  (* Slot 0: flow 0 selected, transmission fails -> marked for 5 slots. *)
  check_int "flow0 first" 0
    (Option.get (sched.select ~slot:0 ~predicted_good:(fun _ -> true)));
  sched.fail ~flow:0;
  check_bool "marked" true (Core.Csdps.is_marked c ~flow:0 ~now:3);
  (* Slots 1..5: only flow 1 is served. *)
  for slot = 1 to 4 do
    check_int "skips marked flow" 1
      (Option.get (sched.select ~slot ~predicted_good:(fun _ -> true)));
    sched.complete ~flow:1
  done;
  (* After the backoff expires flow 0 is probed again. *)
  check_bool "unmarked after backoff" false (Core.Csdps.is_marked c ~flow:0 ~now:6);
  check_int "flow0 retried" 0
    (Option.get (sched.select ~slot:6 ~predicted_good:(fun _ -> true)))

let test_csdps_idles_when_all_marked () =
  let c = Core.Csdps.create ~backoff:10 (mk_flows [| 1. |]) in
  let sched = Core.Csdps.instance c in
  fill sched ~flow:0 ~count:2;
  ignore (sched.select ~slot:0 ~predicted_good:(fun _ -> true));
  sched.fail ~flow:0;
  check_bool "idles during backoff" true
    (Option.is_none (sched.select ~slot:1 ~predicted_good:(fun _ -> true)))

let test_csdps_no_compensation_vs_wps () =
  (* The paper's Section-9 claim, measured: under identical channels, CSDPS
     gives the errored flow no compensation, so its normalised-service gap
     is larger than WPS's. *)
  let horizon = 20_000 in
  let run make_sched =
    let flows = mk_flows [| 1.; 1. |] in
    let sched = make_sched flows in
    let monitor =
      Core.Fairness.Monitor.create ~weights:[| 1.; 1. |] ~window:100 ~sched
    in
    let master = Rng.create 4242 in
    let setups =
      Array.init 2 (fun i ->
          {
            Core.Simulator.flow = flows.(i);
            source = Wfs_traffic.Cbr.create ~interarrival:1. ();
            channel =
              (if i = 1 then
                 Wfs_channel.Gilbert_elliott.of_burstiness
                   ~rng:(Rng.split master) ~good_prob:0.7 ~sum:0.1 ()
               else Wfs_channel.Error_free.create ());
          })
    in
    let m =
      Core.Sim_config.v ~horizon setups
      |> Core.Sim_config.with_predictor Wfs_channel.Predictor.One_step
      |> Core.Sim_config.with_hook (Core.Fairness.Monitor.hook monitor)
      |> Core.Sim_config.run sched
    in
    (Core.Fairness.Monitor.mean_jain monitor, Core.Metrics.delivered m ~flow:1)
  in
  let jain_csdps, delivered_csdps =
    run (fun flows -> Core.Csdps.instance (Core.Csdps.create flows))
  in
  let jain_wps, delivered_wps =
    run (fun flows ->
        Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows))
  in
  check_bool "both deliver substantially" true
    (delivered_csdps > 1_000 && delivered_wps > 1_000);
  check_bool "WPS is fairer than CSDPS" true (jain_wps > jain_csdps)

(* --- CIF-Q extension --- *)

let run_cifq ?alpha ~weights ~slots ~pred () =
  let flows = mk_flows weights in
  let c = Core.Cifq.create ?alpha flows in
  let sched = Core.Cifq.instance c in
  Array.iteri (fun f _ -> fill sched ~flow:f ~count:(2 * slots)) weights;
  let served = Array.make (Array.length weights) 0 in
  for slot = 0 to slots - 1 do
    match sched.select ~slot ~predicted_good:(pred slot) with
    | Some f ->
        served.(f) <- served.(f) + 1;
        sched.complete ~flow:f
    | None -> ()
  done;
  (c, served)

let test_cifq_error_free_fair_shares () =
  let _, served =
    run_cifq ~weights:[| 1.; 3. |] ~slots:400 ~pred:(fun _ _ -> true) ()
  in
  check_int "1:3 shares, flow0" 100 served.(0);
  check_int "1:3 shares, flow1" 300 served.(1)

let test_cifq_lag_conserved_when_all_good () =
  let c, _ =
    run_cifq ~weights:[| 1.; 1.; 2. |] ~slots:300 ~pred:(fun _ _ -> true) ()
  in
  let total = Core.Cifq.lag c ~flow:0 + Core.Cifq.lag c ~flow:1 + Core.Cifq.lag c ~flow:2 in
  check_int "sum of lags is zero" 0 total;
  (* and with everything good no flow drifts more than a packet *)
  for f = 0 to 2 do
    check_bool "lag bounded" true (abs (Core.Cifq.lag c ~flow:f) <= 1)
  done

let test_cifq_compensates_errored_flow () =
  (* flow1 blocked for 100 slots, then recovers: it is lagging and must
     receive extra service afterwards.  With alpha = 0.5, half of flow0's
     contested slots go to the lagger, so a 50-packet lag clears within
     ~200 slots. *)
  let pred slot f = if f = 1 then slot >= 100 else true in
  let c, served =
    run_cifq ~alpha:0.5 ~weights:[| 1.; 1. |] ~slots:500
      ~pred:(fun slot f -> pred slot f)
      ()
  in
  check_bool "flow1 caught up" true (abs (Core.Cifq.lag c ~flow:1) <= 2);
  (* Over the whole run the shares must be near-equal again: flow1 got its
     lost slots back. *)
  check_bool "long-term fairness" true (abs (served.(0) - served.(1)) <= 10)

let test_cifq_graceful_degradation () =
  (* During flow1's catch-up phase, the leading flow0 retains at least an
     alpha fraction of its reference share (alpha=0.8 -> >= 0.4 of slots),
     whereas alpha=0 surrenders nearly everything. *)
  let measure alpha =
    let flows = mk_flows [| 1.; 1. |] in
    let c = Core.Cifq.create ~alpha flows in
    let sched = Core.Cifq.instance c in
    fill sched ~flow:0 ~count:1000;
    fill sched ~flow:1 ~count:1000;
    (* Phase 1: flow1 blocked for 100 slots. *)
    for slot = 0 to 99 do
      (match sched.select ~slot ~predicted_good:(fun f -> f = 0) with
      | Some f -> sched.complete ~flow:f
      | None -> ())
    done;
    (* Phase 2: both good for 100 slots; count flow0's service. *)
    let flow0 = ref 0 in
    for slot = 100 to 199 do
      match sched.select ~slot ~predicted_good:(fun _ -> true) with
      | Some 0 ->
          incr flow0;
          sched.complete ~flow:0
      | Some f -> sched.complete ~flow:f
      | None -> ()
    done;
    !flow0
  in
  let retained_high = measure 0.8 in
  let retained_zero = measure 0.0 in
  check_bool "alpha=0.8 retains >= 35 of 100" true (retained_high >= 35);
  check_bool "alpha=0 surrenders the channel" true (retained_zero <= 5);
  check_bool "monotone in alpha" true (retained_high > retained_zero)

let test_cifq_failed_transmission_refunds_lag () =
  let flows = mk_flows [| 1. |] in
  let c = Core.Cifq.create flows in
  let sched = Core.Cifq.instance c in
  fill sched ~flow:0 ~count:2;
  ignore (sched.select ~slot:0 ~predicted_good:(fun _ -> true));
  sched.fail ~flow:0;
  check_int "lag back to reference-owed state" 1 (Core.Cifq.lag c ~flow:0)

let test_cifq_in_simulator () =
  (* End-to-end sanity on the Example 1 workload. *)
  let setups = Core.Presets.example1 ~seed:5 () in
  let flows = Core.Presets.flows_of setups in
  let sched = Core.Cifq.instance (Core.Cifq.create flows) in
  let m =
    Core.Sim_config.v ~horizon:30_000 setups
    |> Core.Sim_config.with_predictor Wfs_channel.Predictor.One_step
    |> Core.Sim_config.run sched
  in
  check_bool "throughput delivered" true
    (Core.Metrics.throughput m ~flow:1 ~slots:30_000 > 0.49);
  check_bool "errored flow served" true
    (Core.Metrics.throughput m ~flow:0 ~slots:30_000 > 0.18)

let test_csdps_weighted () =
  let c = Core.Csdps.create (mk_flows [| 2.; 1. |]) in
  let sched = Core.Csdps.instance c in
  fill sched ~flow:0 ~count:9;
  fill sched ~flow:1 ~count:9;
  let served = Array.make 2 0 in
  for slot = 0 to 5 do
    match sched.select ~slot ~predicted_good:(fun _ -> true) with
    | Some f ->
        served.(f) <- served.(f) + 1;
        sched.complete ~flow:f
    | None -> ()
  done;
  check_int "flow0 double share" 4 served.(0);
  check_int "flow1 single share" 2 served.(1)

let test_wps_per_flow_limits () =
  (* Example 6's knob: per-flow (credit, debit) caps override the global
     parameters. *)
  let flows = mk_flows [| 1.; 1. |] in
  let wps =
    Core.Wps.create
      ~params:(Core.Params.swapa ~credit_limit:4 ~debit_limit:4 ())
      ~limits:[| (0, 4); (4, 0) |]
      flows
  in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:20;
  fill sched ~flow:1 ~count:20;
  (* flow0 errored throughout: its credit cap of 0 forbids accumulation,
     and flow1's debit cap of 0 forbids debt. *)
  for slot = 0 to 9 do
    (match sched.select ~slot ~predicted_good:(fun f -> f = 1) with
    | Some f -> sched.complete ~flow:f
    | None -> ());
    sched.on_slot_end ~slot
  done;
  check_int "flow0 credit capped at 0" 0 (Core.Wps.credit wps ~flow:0);
  check_bool "flow1 never in debt" true (Core.Wps.credit wps ~flow:1 >= 0)

let test_metrics_slot_counters () =
  let m = Core.Metrics.create ~n_flows:1 () in
  Core.Metrics.on_idle_slot m;
  Core.Metrics.on_busy_slot m;
  Core.Metrics.on_busy_slot m;
  Core.Metrics.on_failed_attempt m ~flow:0;
  check_int "idle" 1 (Core.Metrics.idle_slots m);
  check_int "busy" 2 (Core.Metrics.busy_slots m);
  check_int "failed" 1 (Core.Metrics.failed_attempts m ~flow:0)

let test_heap_snapshot_helpers () =
  let h = Wfs_util.Heap.create ~leq:(fun (a : int) b -> a <= b) () in
  List.iter (Wfs_util.Heap.push h) [ 3; 1; 2 ];
  check_int "fold sums contents" 6 (Wfs_util.Heap.fold ( + ) 0 h);
  check_int "to_list has all" 3 (List.length (Wfs_util.Heap.to_list h));
  check_int "snapshot does not drain" 3 (Wfs_util.Heap.length h)

let test_table_truncates_long_rows () =
  let t = Wfs_util.Tablefmt.create ~title:"t" ~columns:[ "a" ] in
  Wfs_util.Tablefmt.add_row t [ "1"; "overflow"; "more" ];
  let rendered = Wfs_util.Tablefmt.render t in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec scan i =
      if i + n > m then false
      else if String.sub hay i n = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  check_bool "kept cell present" true (contains "1" rendered);
  check_bool "overflow cells dropped" true (not (contains "overflow" rendered))

let test_iwfq_fluid_accessor_consistency () =
  (* The exposed fluid reference agrees with the lag computation. *)
  let flows = mk_flows [| 1.; 1. |] in
  let iwfq = Core.Iwfq.create flows in
  let sched = Core.Iwfq.instance iwfq in
  fill sched ~flow:0 ~count:4;
  for slot = 0 to 1 do
    ignore (sched.select ~slot ~predicted_good:(fun _ -> false));
    sched.on_slot_end ~slot
  done;
  let fluid_q = Core.Fluid_ref.queue (Core.Iwfq.fluid iwfq) ~flow:0 in
  Alcotest.(check (float 1e-9))
    "lag = real queue - fluid queue"
    (float_of_int (sched.queue_length 0) -. fluid_q)
    (Core.Iwfq.lag iwfq ~flow:0)

(* --- Randomized invariants over the core schedulers --- *)

let prop_conservation =
  QCheck.Test.make ~name:"WPS/IWFQ conserve packets under random scenarios"
    ~count:25
    QCheck.(pair (0 -- 1000000) (2 -- 4))
    (fun (seed, n_flows) ->
      let flows =
        Array.init n_flows (fun id -> Core.Params.flow ~id ~weight:1. ())
      in
      let master = Rng.create seed in
      let mk_setups () =
        Array.init n_flows (fun i ->
            {
              Core.Simulator.flow = flows.(i);
              source =
                Wfs_traffic.Poisson.create ~rng:(Rng.split master)
                  ~rate:(0.8 /. float_of_int n_flows);
              channel =
                Wfs_channel.Gilbert_elliott.create ~rng:(Rng.split master)
                  ~pg:0.1 ~pe:0.05 ();
            })
      in
      let conserves sched_of =
        let setups = mk_setups () in
        let sched = sched_of flows in
        let m = Core.Sim_config.(v ~horizon:3_000 setups |> run sched) in
        let ok = ref true in
        for i = 0 to n_flows - 1 do
          let arr = Core.Metrics.arrivals m ~flow:i in
          let settled =
            Core.Metrics.delivered m ~flow:i
            + Core.Metrics.dropped m ~flow:i
            + Core.Metrics.backlog_remaining m ~flow:i
          in
          if arr <> settled then ok := false;
          if Core.Metrics.backlog_remaining m ~flow:i < 0 then ok := false
        done;
        !ok
      in
      conserves (fun flows ->
          Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows))
      && conserves (fun flows -> Core.Iwfq.instance (Core.Iwfq.create flows))
      && conserves (fun flows -> Core.Cifq.instance (Core.Cifq.create flows))
      && conserves (fun flows -> Core.Csdps.instance (Core.Csdps.create flows)))

let prop_wps_credit_bounds =
  QCheck.Test.make ~name:"WPS credits stay within [-D, C] at every slot"
    ~count:25
    QCheck.(pair (0 -- 1000000) (pair (0 -- 5) (0 -- 5)))
    (fun (seed, (climit, dlimit)) ->
      let n = 3 in
      let flows = Array.init n (fun id -> Core.Params.flow ~id ~weight:1. ()) in
      let wps =
        Core.Wps.create
          ~params:
            (Core.Params.swapa ~credit_limit:climit ~debit_limit:dlimit ())
          flows
      in
      let sched = Core.Wps.instance wps in
      let master = Rng.create seed in
      let sources =
        Array.init n (fun _ ->
            Wfs_traffic.Poisson.create ~rng:(Rng.split master) ~rate:0.3)
      in
      let channels =
        Array.init n (fun _ ->
            Wfs_channel.Gilbert_elliott.create ~rng:(Rng.split master) ~pg:0.1
              ~pe:0.1 ())
      in
      let ok = ref true in
      let seq = ref 0 in
      for slot = 0 to 2_000 - 1 do
        Array.iteri
          (fun i src ->
            for _ = 1 to Wfs_traffic.Arrival.arrivals src ~slot do
              sched.enqueue ~slot
                (Wfs_traffic.Packet.make ~flow:i ~seq:!seq ~arrival:slot ());
              incr seq
            done)
          sources;
        let states = Array.map (fun ch -> Channel.advance ch ~slot) channels in
        let predicted_good i = Channel.state_is_good states.(i) in
        (match sched.select ~slot ~predicted_good with
        | Some f ->
            if Channel.state_is_good states.(f) then sched.complete ~flow:f
            else sched.fail ~flow:f
        | None -> ());
        sched.on_slot_end ~slot;
        for i = 0 to n - 1 do
          let c = Core.Wps.credit wps ~flow:i in
          if c > climit || c < -dlimit then ok := false
        done
      done;
      !ok)

let prop_work_conserving_when_all_good =
  QCheck.Test.make
    ~name:"WPS with good channels never idles while backlogged" ~count:25
    QCheck.(0 -- 1000000)
    (fun seed ->
      let n = 3 in
      let flows = Array.init n (fun id -> Core.Params.flow ~id ~weight:1. ()) in
      let wps = Core.Wps.create ~params:(Core.Params.swapa ()) flows in
      let sched = Core.Wps.instance wps in
      let master = Rng.create seed in
      let sources =
        Array.init n (fun _ ->
            Wfs_traffic.Poisson.create ~rng:(Rng.split master) ~rate:0.5)
      in
      let ok = ref true in
      let seq = ref 0 in
      for slot = 0 to 1_000 - 1 do
        Array.iteri
          (fun i src ->
            for _ = 1 to Wfs_traffic.Arrival.arrivals src ~slot do
              sched.enqueue ~slot
                (Wfs_traffic.Packet.make ~flow:i ~seq:!seq ~arrival:slot ());
              incr seq
            done)
          sources;
        let backlogged =
          Array.exists (fun i -> sched.queue_length i > 0) (Array.init n Fun.id)
        in
        (match sched.select ~slot ~predicted_good:(fun _ -> true) with
        | Some f -> sched.complete ~flow:f
        | None -> if backlogged then ok := false);
        sched.on_slot_end ~slot
      done;
      !ok)

let prop_per_flow_fifo =
  (* Neither scheduler may reorder packets within a flow: delivered
     sequence numbers are strictly increasing per flow. *)
  QCheck.Test.make ~name:"per-flow FIFO delivery order" ~count:20
    QCheck.(0 -- 1000000)
    (fun seed ->
      let n = 3 in
      let flows = Array.init n (fun id -> Core.Params.flow ~id ~weight:1. ()) in
      let master = Rng.create seed in
      let fifo_ok make_sched =
        let sched = make_sched flows in
        let trace = Wfs_core.Tracelog.create () in
        let setups =
          Array.init n (fun i ->
              {
                Core.Simulator.flow = flows.(i);
                source =
                  Wfs_traffic.Poisson.create ~rng:(Rng.split master) ~rate:0.25;
                channel =
                  Wfs_channel.Gilbert_elliott.create ~rng:(Rng.split master)
                    ~pg:0.1 ~pe:0.1 ();
              })
        in
        ignore
          Core.Sim_config.(v ~horizon:2_000 setups |> with_trace trace |> run sched);
        let last_seq = Array.make n (-1) in
        List.for_all
          (fun { Wfs_core.Tracelog.event; _ } ->
            match event with
            | Wfs_core.Tracelog.Transmit_ok { flow; seq; _ } ->
                let ok = seq > last_seq.(flow) in
                last_seq.(flow) <- seq;
                ok
            | _ -> true)
          (Wfs_core.Tracelog.events trace)
      in
      fifo_ok (fun flows ->
          Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows))
      && fifo_ok (fun flows -> Core.Iwfq.instance (Core.Iwfq.create flows))
      && fifo_ok (fun flows -> Core.Cifq.instance (Core.Cifq.create flows))
      && fifo_ok (fun flows -> Core.Csdps.instance (Core.Csdps.create flows)))

let test_wps_frame_length_matches_weights () =
  (* At a frame boundary, the pending allocation equals the sum of the
     effective weights of the backlogged flows. *)
  let wps = Core.Wps.create ~params:(Core.Params.swapa ()) (mk_flows [| 2.; 3. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:20;
  fill sched ~flow:1 ~count:20;
  ignore (sched.select ~slot:0 ~predicted_good:(fun _ -> true));
  (* One slot consumed; 2+3-1 remain. *)
  check_int "frame length" 4 (Array.length (Core.Wps.frame_snapshot wps));
  check_int "eff weight flow0" 2 (Core.Wps.effective_weight wps ~flow:0);
  check_int "eff weight flow1" 3 (Core.Wps.effective_weight wps ~flow:1)

let suite =
  [
    ("markov validate", `Quick, test_markov_validate);
    ("markov stationary", `Quick, test_markov_stationary);
    ("markov empirical", `Quick, test_markov_matches_empirical);
    ("markov GE equivalence", `Quick, test_markov_ge_equivalence);
    ("pareto support", `Quick, test_pareto_draw_support);
    ("pareto mean", `Quick, test_pareto_mean);
    ("pareto on-off rate", `Quick, test_pareto_onoff_rate);
    ("pareto heavy tail", `Quick, test_pareto_onoff_heavy_tail);
    ("wf2q+ weighted shares", `Quick, test_wf2q_plus_weighted_shares);
    ("wf2q+ matches wf2q backlogged", `Quick, test_wf2q_plus_matches_wf2q_order_when_backlogged);
    ("wf2q+ virtual time monotone", `Quick, test_wf2q_plus_virtual_time_monotone);
    ("jain extremes", `Quick, test_jain_extremes);
    ("max normalized gap", `Quick, test_max_normalized_gap);
    ("fairness monitor fair case", `Quick, test_fairness_monitor_on_fair_schedule);
    ("fairness monitor unfair case", `Quick, test_fairness_monitor_detects_unfairness);
    ("aloha conservation", `Quick, test_aloha_conservation);
    ("aloha statistics", `Quick, test_aloha_statistics);
    ("aloha beats single-shot", `Quick, test_aloha_beats_single_shot_when_crowded);
    ("mac sim with aloha", `Quick, test_mac_sim_with_aloha);
    ("csdps round robin", `Quick, test_csdps_round_robin);
    ("csdps marks on failure", `Quick, test_csdps_marks_on_failure);
    ("csdps idles when marked", `Quick, test_csdps_idles_when_all_marked);
    ("csdps unfair vs wps", `Quick, test_csdps_no_compensation_vs_wps);
    ("cifq fair shares", `Quick, test_cifq_error_free_fair_shares);
    ("cifq lag conservation", `Quick, test_cifq_lag_conserved_when_all_good);
    ("cifq compensates errored flow", `Quick, test_cifq_compensates_errored_flow);
    ("cifq graceful degradation", `Quick, test_cifq_graceful_degradation);
    ("cifq fail refunds lag", `Quick, test_cifq_failed_transmission_refunds_lag);
    ("cifq in simulator", `Quick, test_cifq_in_simulator);
    ("wps frame length = eff weights", `Quick, test_wps_frame_length_matches_weights);
    ("csdps weighted", `Quick, test_csdps_weighted);
    ("wps per-flow limits", `Quick, test_wps_per_flow_limits);
    ("metrics slot counters", `Quick, test_metrics_slot_counters);
    ("heap snapshots", `Quick, test_heap_snapshot_helpers);
    ("table truncates long rows", `Quick, test_table_truncates_long_rows);
    ("iwfq fluid accessor", `Quick, test_iwfq_fluid_accessor_consistency);
    QCheck_alcotest.to_alcotest prop_per_flow_fifo;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_wps_credit_bounds;
    QCheck_alcotest.to_alcotest prop_work_conserving_when_all_good;
  ]
