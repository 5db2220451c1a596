(* MAC-level cell simulator: runs a scenario file through the Section-6
   medium access protocol (uplink invisibility, control-slot notification
   contention, piggybacked queue reports).

   Examples:
     wfs_mac examples/uplink.scenario
     wfs_mac --aloha 0.5 examples/uplink.scenario *)

module Mac = Wfs_mac
module Core = Wfs_core

let run ~path ~contention ~control_weight ~metrics_out ~trace_out ~trace_csv
    ~trace_stride ~profile ~flight_recorder =
  let scenario = Core.Scenario.load path in
  let flows =
    Array.mapi
      (fun i setup ->
        let host, direction = scenario.Core.Scenario.addrs.(i) in
        {
          Mac.Mac_sim.addr =
            {
              Mac.Frame.host;
              direction =
                (match direction with
                | Core.Scenario.Up -> Mac.Frame.Uplink
                | Core.Scenario.Down -> Mac.Frame.Downlink);
              index = i;
            };
          weight = setup.Core.Simulator.flow.Core.Params.weight;
          source = setup.Core.Simulator.source;
          channel = setup.Core.Simulator.channel;
          drop = setup.Core.Simulator.flow.Core.Params.drop;
        })
      scenario.Core.Scenario.setups
  in
  let n_flows = Array.length flows in
  let horizon = scenario.Core.Scenario.horizon in
  let sinks =
    if trace_out = None && trace_csv = None then []
    else
      let hdr =
        Wfs_obs.Trace.header ~stride:trace_stride
          ~params:
            [
              ("scenario", Wfs_util.Json.Str path);
              ("seed", Wfs_util.Json.Int scenario.Core.Scenario.seed);
              ("horizon", Wfs_util.Json.Int horizon);
            ]
          ~n_flows ()
      in
      List.filter_map Fun.id
        [
          Option.map (fun p -> Wfs_obs.Sink.jsonl ~path:p hdr) trace_out;
          Option.map (fun p -> Wfs_obs.Sink.csv ~path:p hdr) trace_csv;
        ]
  in
  let registry =
    if metrics_out <> None then Some (Wfs_obs.Instruments.create ()) else None
  in
  let hooks sched =
    if registry <> None || sinks <> [] then
      [ Wfs_obs.Probe.create ~stride:trace_stride ~sinks ?instruments:registry ~n_flows sched ]
    else []
  in
  let profiler = if profile then Some (Wfs_obs.Profiler.create ()) else None in
  (* The flight recorder rides the config's trace slot: Mac_sim feeds its
     WPS trace through it, so the ring holds the most recent swap/drop
     events when a run dies. *)
  let recorder =
    Option.map (fun cap -> Core.Tracelog.create ~capacity:cap ()) flight_recorder
  in
  let cfg =
    Mac.Mac_sim.config
      ~rng:(Wfs_util.Rng.create scenario.Core.Scenario.seed)
      ~control_weight ~contention ?trace:recorder ~hooks
      ?profiler:(Option.map Wfs_obs.Profiler.hooks profiler)
      ~horizon flows
  in
  let r =
    match Mac.Mac_sim.run cfg with
    | r ->
        List.iter Wfs_obs.Sink.close sinks;
        r
    | exception exn -> (
        List.iter Wfs_obs.Sink.close sinks;
        match recorder with
        | None -> raise exn
        | Some tr ->
            let backtrace = Printexc.get_raw_backtrace () in
            let e = Wfs_util.Error.of_exn ~who:"wfs_mac" ~backtrace exn in
            Wfs_util.Error.raise_
              (Wfs_util.Error.add_context (Wfs_runner.Exec.flight_context tr) e))
  in
  (match (metrics_out, registry) with
  | Some out_path, Some reg ->
      let t = Wfs_obs.Instruments.to_table ~title:"probe instruments" reg in
      let art =
        Wfs_runner.Artifact.v ~horizon ~seed:scenario.Core.Scenario.seed
          ~seeds:1 ~jobs:1 ~runs:1 ~slots:horizon ~wall_clock_s:0.
          ~tables:[ Wfs_runner.Artifact.table_of t ]
      in
      Wfs_runner.Artifact.write ~path:out_path art
  | _ -> ());
  let m = r.Mac.Mac_sim.metrics in
  let table =
    Wfs_util.Tablefmt.create
      ~title:
        (Printf.sprintf "%s through the MAC (horizon=%d)" path
           scenario.Core.Scenario.horizon)
      ~columns:
        [ "flow"; "addr"; "arrivals"; "delivered"; "mean delay"; "loss" ]
  in
  Array.iteri
    (fun i (fl : Mac.Mac_sim.flow_spec) ->
      Wfs_util.Tablefmt.add_row table
        [
          string_of_int i;
          Format.asprintf "%a" Mac.Frame.pp_addr fl.Mac.Mac_sim.addr;
          string_of_int (Core.Metrics.arrivals m ~flow:i);
          string_of_int (Core.Metrics.delivered m ~flow:i);
          Wfs_util.Tablefmt.cell_of_float (Core.Metrics.mean_delay m ~flow:i);
          Wfs_util.Tablefmt.cell_of_float ~decimals:4 (Core.Metrics.loss m ~flow:i);
        ])
    flows;
  Wfs_util.Tablefmt.print table;
  Printf.printf
    "\ncontrol slots %d | data slots %d | idle %d | notifications %d (collisions %d) | piggyback reveals %d | mean reveal delay %.2f\n"
    r.Mac.Mac_sim.control_slots r.Mac.Mac_sim.data_slots r.Mac.Mac_sim.idle_slots
    r.Mac.Mac_sim.notifications_won r.Mac.Mac_sim.notification_collisions
    r.Mac.Mac_sim.piggyback_reveals r.Mac.Mac_sim.mean_reveal_delay;
  match profiler with
  | None -> ()
  | Some prof ->
      print_newline ();
      Wfs_util.Tablefmt.print (Wfs_obs.Profiler.phase_table ~slots:horizon prof)

open Cmdliner

let scenario_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCENARIO" ~doc:"Scenario file (see lib/core/scenario.mli).")

let aloha_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "aloha" ]
        ~doc:"Use p-persistent ALOHA notification contention with this persistence.")

let control_weight_arg =
  Arg.(
    value & opt float 1.
    & info [ "control-weight" ] ~doc:"Scheduling weight of the control flow.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write probe instruments as a wfs-bench/1 JSON artifact.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream a per-slot wfs-trace/1 JSONL time series to FILE \
           (selected may be the control-flow index n on a control slot).")

let trace_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-csv" ] ~docv:"FILE"
        ~doc:"Like $(b,--trace-out) but a CSV sink; both may be given.")

let trace_stride_arg =
  Arg.(
    value & opt int 1
    & info [ "trace-stride" ] ~docv:"N"
        ~doc:"Sample every N-th slot (default 1: every slot).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time each slot-loop phase with a monotonic clock and print a \
           phase table (control-slot contention counts under transmit).")

let flight_recorder_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-recorder" ] ~docv:"N"
        ~doc:
          "Keep the last N WPS trace events in a ring; on a crash they are \
           reported in the error context.")

let main path aloha control_weight metrics_out trace_out trace_csv trace_stride
    profile flight_recorder =
  if trace_stride < 1 then begin
    Printf.eprintf "wfs_mac: --trace-stride must be >= 1, got %d\n" trace_stride;
    exit 2
  end;
  (match flight_recorder with
  | Some n when n < 1 ->
      Printf.eprintf "wfs_mac: --flight-recorder must be >= 1, got %d\n" n;
      exit 2
  | _ -> ());
  let contention =
    match aloha with
    | None -> Mac.Mac_sim.Single_shot
    | Some p -> Mac.Mac_sim.Aloha p
  in
  try
    run ~path ~contention ~control_weight ~metrics_out ~trace_out ~trace_csv
      ~trace_stride ~profile ~flight_recorder
  with
  | Invalid_argument msg ->
      Printf.eprintf "wfs_mac: %s\n" msg;
      exit 2
  | Wfs_util.Error.Error e ->
      Printf.eprintf "wfs_mac: %s\n" (Wfs_util.Error.to_string e);
      exit 2

let cmd =
  let doc = "Wireless cell simulator with the Section-6 MAC protocol" in
  Cmd.v (Cmd.info "wfs_mac" ~doc)
    Term.(
      const main $ scenario_arg $ aloha_arg $ control_weight_arg
      $ metrics_out_arg $ trace_out_arg $ trace_csv_arg $ trace_stride_arg
      $ profile_arg $ flight_recorder_arg)

let () = exit (Cmd.eval cmd)
