(* Worst-case behaviour: slotted contention vs tag precedence (Section 7).

   The paper observes that WPS loses IWFQ's precedence history: a flow that
   only contends in designated slots can miss the few slots in which its
   channel happens to be good, while IWFQ — whose lagging flows keep the
   minimum service tag — seizes *every* good slot.  This example builds a
   hostile channel (good 1 slot in `period`, bad otherwise) for a victim
   flow sharing the cell with saturated, error-free peers, and compares the
   victim's throughput under WRR, full WPS, and IWFQ.

   Run with: dune exec examples/starvation.exe *)

module Core = Wfs_core

let horizon = 50_000
let n_flows = 5

let run ~period make_sched =
  let flows =
    Array.init n_flows (fun id -> Core.Params.flow ~id ~weight:1. ())
  in
  let sched = make_sched flows in
  let victim_channel =
    Wfs_channel.Periodic_ch.create
      ~pattern:
        (Array.init period (fun i ->
             if i = period / 2 then Wfs_channel.Channel.Good
             else Wfs_channel.Channel.Bad))
  in
  let setups =
    Array.init n_flows (fun i ->
        {
          Core.Simulator.flow = flows.(i);
          source =
            (if i = 0 then Wfs_traffic.Cbr.create ~interarrival:(float_of_int period) ()
             else Wfs_traffic.Cbr.create ~interarrival:1. ());
          channel =
            (if i = 0 then victim_channel else Wfs_channel.Error_free.create ());
        })
  in
  let m =
    Core.Sim_config.v ~horizon setups
    |> Core.Sim_config.with_predictor Wfs_channel.Predictor.Perfect
    |> Core.Sim_config.run sched
  in
  ( Core.Metrics.delivered m ~flow:0,
    Core.Metrics.arrivals m ~flow:0,
    Core.Metrics.mean_delay m ~flow:0 )

let () =
  let table =
    Wfs_util.Tablefmt.create
      ~title:
        "Victim flow (channel good 1 slot in N) vs 4 saturated clean peers"
      ~columns:[ "good period"; "scheduler"; "delivered/offered"; "mean delay" ]
  in
  List.iter
    (fun period ->
      List.iter
        (fun (name, make) ->
          let delivered, offered, delay = run ~period make in
          Wfs_util.Tablefmt.add_row table
            [
              string_of_int period;
              name;
              Printf.sprintf "%d/%d" delivered offered;
              Wfs_util.Tablefmt.cell_of_float delay;
            ])
        [
          ( "WRR",
            fun flows ->
              Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr flows) );
          ( "WPS (SwapA)",
            fun flows ->
              Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows) );
          ( "IWFQ",
            fun flows -> Core.Iwfq.instance (Core.Iwfq.create flows) );
        ])
    [ 5; 10; 20 ];
  Wfs_util.Tablefmt.print table;
  print_endline
    "IWFQ's lagging-flow tag precedence uses every good slot the victim\n\
     gets; slotted WRR only serves the victim when its frame position and\n\
     its rare good slots align.  WPS's credits recover part of the gap —\n\
     bounded by the credit cap — which is the average-case/worst-case\n\
     trade-off Section 7 discusses."
