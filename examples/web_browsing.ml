(* WWW browsing cell: many bursty, loss-tolerant flows.

   Eight mobiles browse the web: each flow is a bursty MMPP (think request/
   response trains) over its own Gilbert-Elliott channel, a mix of clean and
   error-prone locations.  The experiment sweeps the credit/debit cap to
   show the separation-vs-compensation trade-off of Section 3 at the level
   of a whole cell: bigger caps hide error bursts from the unlucky mobiles
   at a small cost to the lucky ones.

   Run with: dune exec examples/web_browsing.exe *)

module Core = Wfs_core

let n_flows = 8
let horizon = 300_000

let build_setups ~seed =
  let master = Wfs_util.Rng.create seed in
  let flows =
    Array.init n_flows (fun id ->
        Core.Params.flow ~id ~weight:1. ~drop:(Core.Params.Delay_bound 400) ())
  in
  let setups =
    Array.map
      (fun (flow : Core.Params.flow) ->
        let source_rng = Wfs_util.Rng.split master in
        let channel_rng = Wfs_util.Rng.split master in
        (* Half the mobiles sit in bad spots: PG 0.7 instead of 0.95. *)
        let good_prob = if flow.id mod 2 = 0 then 0.95 else 0.7 in
        {
          Core.Simulator.flow;
          source = Wfs_traffic.Mmpp.paper_source ~rng:source_rng ~mean_rate:0.09 ();
          channel =
            Wfs_channel.Gilbert_elliott.of_burstiness ~rng:channel_rng
              ~good_prob ~sum:0.1 ();
        })
      flows
  in
  (flows, setups)

let mean_over pred m =
  let sum = ref 0. and n = ref 0 in
  for i = 0 to n_flows - 1 do
    if pred i then begin
      sum := !sum +. Core.Metrics.mean_delay m ~flow:i;
      incr n
    end
  done;
  !sum /. float_of_int !n

let () =
  let table =
    Wfs_util.Tablefmt.create
      ~title:"Web browsing cell: credit/debit cap sweep (WPS, one-step prediction)"
      ~columns:
        [ "cap"; "good-spot mean delay"; "bad-spot mean delay"; "bad-spot loss" ]
  in
  List.iter
    (fun cap ->
      let flows, setups = build_setups ~seed:23 in
      let sched =
        Core.Wps.instance
          (Core.Wps.create
             ~params:(Core.Params.swapa ~credit_limit:cap ~debit_limit:cap ())
             flows)
      in
      let m =
        Core.Sim_config.v ~horizon setups
        |> Core.Sim_config.with_predictor Wfs_channel.Predictor.One_step
        |> Core.Sim_config.run sched
      in
      let bad_loss = ref 0. in
      for i = 0 to n_flows - 1 do
        if i mod 2 = 1 then bad_loss := !bad_loss +. Core.Metrics.loss m ~flow:i
      done;
      Wfs_util.Tablefmt.add_row table
        [
          string_of_int cap;
          Wfs_util.Tablefmt.cell_of_float (mean_over (fun i -> i mod 2 = 0) m);
          Wfs_util.Tablefmt.cell_of_float (mean_over (fun i -> i mod 2 = 1) m);
          Wfs_util.Tablefmt.cell_of_float ~decimals:4 (!bad_loss /. 4.);
        ])
    [ 0; 1; 2; 4; 8; 16 ];
  Wfs_util.Tablefmt.print table;
  print_endline
    "Larger caps let unlucky mobiles reclaim more of their error-burst losses\n\
     (lower bad-spot delay/loss) while good-spot flows pay a bounded price —\n\
     the Section 3 compensation-vs-separation dial."
