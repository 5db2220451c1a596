(* Teleconference cell: the paper's motivating workload.

   A base station serves a multimedia teleconference: two delay-sensitive
   audio flows (CBR, strict delay budget), one adaptive video flow (on-off,
   higher rate, loss-tolerant) and one background file transfer (saturated).
   Each mobile perceives a different channel.  We compare plain WRR against
   full WPS and report the delay percentiles that matter for interactive
   audio.

   Run with: dune exec examples/teleconference.exe *)

module Core = Wfs_core

let horizon = 200_000

let build_setups ~seed =
  let master = Wfs_util.Rng.create seed in
  let rng () = Wfs_util.Rng.split master in
  let audio_drop = Core.Params.Delay_bound 50 in
  (* 160 ms budget, say *)
  let flows =
    [|
      (* Two audio flows: low rate, strict deadline, weight 2. *)
      Core.Params.flow ~id:0 ~weight:2. ~drop:audio_drop ();
      Core.Params.flow ~id:1 ~weight:2. ~drop:audio_drop ();
      (* Video: bursty, loss-tolerant, weight 4. *)
      Core.Params.flow ~id:2 ~weight:4. ~drop:(Core.Params.Retx_limit 1) ();
      (* Background bulk transfer: weight 1, never dropped. *)
      Core.Params.flow ~id:3 ~weight:1. ();
    |]
  in
  let ge ~pg ~pe = Wfs_channel.Gilbert_elliott.create ~rng:(rng ()) ~pg ~pe () in
  let setups =
    [|
      {
        Core.Simulator.flow = flows.(0);
        source = Wfs_traffic.Cbr.create ~interarrival:8. ();
        channel = ge ~pg:0.09 ~pe:0.01;
        (* good connection *)
      };
      {
        Core.Simulator.flow = flows.(1);
        source = Wfs_traffic.Cbr.create ~phase:4. ~interarrival:8. ();
        channel = ge ~pg:0.05 ~pe:0.05;
        (* cell-edge mobile: 50% error rate, bursty *)
      };
      {
        Core.Simulator.flow = flows.(2);
        source =
          Wfs_traffic.Onoff.create ~rng:(rng ()) ~packets_per_on_slot:1
            ~p_on_to_off:0.08 ~p_off_to_on:0.05 ();
        channel = ge ~pg:0.08 ~pe:0.02;
      };
      {
        Core.Simulator.flow = flows.(3);
        source = Wfs_traffic.Poisson.create ~rng:(rng ()) ~rate:0.15;
        channel = ge ~pg:0.07 ~pe:0.03;
      };
    |]
  in
  (flows, setups)

let run ~name make_sched =
  let flows, setups = build_setups ~seed:11 in
  let sched = make_sched flows in
  let m =
    Core.Sim_config.v ~horizon setups
    |> Core.Sim_config.with_predictor Wfs_channel.Predictor.One_step
    |> Core.Sim_config.with_histograms
    |> Core.Sim_config.run sched
  in
  Printf.printf "--- %s ---\n" name;
  let label = [| "audio (good channel)"; "audio (cell edge)"; "video"; "bulk" |] in
  Array.iteri
    (fun i _ ->
      Printf.printf "  %-22s mean %.2f  max %4.0f  loss %.4f\n" label.(i)
        (Core.Metrics.mean_delay m ~flow:i)
        (Core.Metrics.max_delay m ~flow:i)
        (Core.Metrics.loss m ~flow:i))
    label;
  Printf.printf "  cell-edge audio delay p50/p95/p99: %.0f / %.0f / %.0f slots\n"
    (Core.Metrics.delay_percentile m ~flow:1 ~p:50.)
    (Core.Metrics.delay_percentile m ~flow:1 ~p:95.)
    (Core.Metrics.delay_percentile m ~flow:1 ~p:99.)

let () =
  run ~name:"WRR (skip on predicted error, no compensation)" (fun flows ->
      Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr flows));
  run ~name:"WPS (spreading + swapping + credits/debits)" (fun flows ->
      Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows));
  run ~name:"IWFQ (idealized reference)" (fun flows ->
      Core.Iwfq.instance (Core.Iwfq.create flows))
