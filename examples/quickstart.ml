(* Quickstart: schedule two flows over an errored wireless channel.

   Builds the paper's Example 1 by hand — a bursty MMPP flow on a bursty
   Gilbert-Elliott channel sharing the cell with a CBR flow on a clean
   channel — runs the full WPS scheduler (SwapA with one-step prediction)
   and prints per-flow delay and loss.

   Run with: dune exec examples/quickstart.exe *)

module Core = Wfs_core

let () =
  let horizon = 100_000 in
  let master = Wfs_util.Rng.create 7 in
  (* Every stochastic component gets its own split stream so the run is
     reproducible and components can be swapped independently. *)
  let source_rng = Wfs_util.Rng.split master in
  let channel_rng = Wfs_util.Rng.split master in

  (* 1. Describe the flows: id, weight, and what to do with hopeless
     packets (here: drop after 2 retransmissions). *)
  let drop = Core.Params.Retx_limit 2 in
  let flows =
    [|
      Core.Params.flow ~id:0 ~weight:1. ~drop ();
      Core.Params.flow ~id:1 ~weight:1. ~drop ();
    |]
  in

  (* 2. Give each flow a traffic source and a channel. *)
  let setups =
    [|
      {
        Core.Simulator.flow = flows.(0);
        source = Wfs_traffic.Mmpp.paper_source ~rng:source_rng ~mean_rate:0.2 ();
        channel =
          Wfs_channel.Gilbert_elliott.of_burstiness ~rng:channel_rng
            ~good_prob:0.7 ~sum:0.1 ();
      };
      {
        Core.Simulator.flow = flows.(1);
        source = Wfs_traffic.Cbr.create ~interarrival:2. ();
        channel = Wfs_channel.Error_free.create ();
      };
    |]
  in

  (* 3. Pick a scheduler: full WPS (spreading + swapping + credits/debits). *)
  let scheduler = Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows) in

  (* 4. Run with one-step channel prediction. *)
  let metrics =
    Core.Sim_config.v ~horizon setups
    |> Core.Sim_config.with_predictor Wfs_channel.Predictor.One_step
    |> Core.Sim_config.run scheduler
  in

  Array.iteri
    (fun i _ ->
      Printf.printf
        "flow %d: mean delay %.2f slots, max %.0f, loss %.4f, throughput %.3f pkt/slot\n"
        i
        (Core.Metrics.mean_delay metrics ~flow:i)
        (Core.Metrics.max_delay metrics ~flow:i)
        (Core.Metrics.loss metrics ~flow:i)
        (Core.Metrics.throughput metrics ~flow:i ~slots:horizon))
    flows;
  Printf.printf "idle slots: %d of %d\n" (Core.Metrics.idle_slots metrics) horizon
