module Core = Wfs_core

let setups_of (spec : Spec.t) =
  match spec.scenario with
  | Spec.Example { n; sum } -> begin
      let seed = spec.seed in
      match n with
      | 1 -> Core.Presets.example1 ?sum ~seed ()
      | 2 -> Core.Presets.example2 ?sum ~seed ()
      | 3 -> Core.Presets.example3 ~seed ()
      | 4 -> Core.Presets.example4 ~seed ()
      | 5 -> Core.Presets.example5 ~seed ()
      | 6 -> Core.Presets.example6 ~seed ()
      | n ->
          (* Spec.example validates 1-6; an out-of-range n here means the
             record was built by hand. *)
          Wfs_util.Error.invalidf "Exec.run" "unknown example %d" n
    end
  | Spec.File path ->
      let sc = Core.Scenario.load ~seed:spec.seed ~horizon:spec.horizon path in
      sc.Core.Scenario.setups

(* Optional-to-builder adapter: apply the step only when the caller passed
   the knob. *)
let maybe step opt t = match opt with None -> t | Some v -> step v t

let run ?credit_limit ?debit_limit ?limits ?(hooks = fun _ _ -> []) ?trace
    ?profiler ?histograms ?fast_path ?skip_stats (spec : Spec.t) =
  (match spec.topo with
  | Some _ ->
      (* Exec drives exactly one cell; the multi-cell driver lives a layer
         up (Wfs_topo depends on this library, not the reverse). *)
      Wfs_util.Error.invalid "Exec.run"
        "spec has a topology clause; run it through Wfs_topo.Topology"
  | None -> ());
  let entry = Core.Registry.get spec.sched in
  let setups = setups_of spec in
  let flows = Core.Presets.flows_of setups in
  let sched = entry.Core.Registry.make ?credit_limit ?debit_limit ?limits flows in
  (* The scheduler instance exists only here, so hooks arrive as a
     builder: the caller says which hooks, this function builds them from
     the run's flows and scheduler. *)
  let cfg =
    Core.Sim_config.v ~horizon:spec.horizon setups
    |> Core.Sim_config.with_predictor entry.Core.Registry.predictor
    |> maybe Core.Sim_config.with_trace trace
    |> maybe Core.Sim_config.with_profiler profiler
    |> maybe (fun on t -> if on then Core.Sim_config.with_histograms t else t) histograms
    |> maybe Core.Sim_config.with_fast_path fast_path
    |> maybe Core.Sim_config.with_skip_stats skip_stats
  in
  List.fold_left
    (fun c h -> Core.Sim_config.with_hook h c)
    cfg (hooks flows sched)
  |> Core.Sim_config.run sched

(* The flight recorder is a capacity-bounded Tracelog: cheap enough to
   leave on for whole sweeps, and when a run dies its last [capacity]
   events ride along in the error context, so the runner's failure table
   shows what the scheduler was doing right before the fault. *)
let flight_context tr =
  let events = Wfs_core.Tracelog.events tr in
  [
    ( "flight-recorder-events",
      string_of_int (Wfs_core.Tracelog.length tr) );
    ( "flight-recorder",
      String.concat " | " (List.map Wfs_core.Tracelog.entry_to_string events) );
  ]

let run_outcome ?credit_limit ?debit_limit ?limits ?hooks ?trace ?profiler
    ?flight_recorder ?histograms ?fast_path ?skip_stats ?max_slots
    (spec : Spec.t) =
  let module Error = Wfs_util.Error in
  let spec_context = [ ("spec", Spec.to_string spec) ] in
  let recorder =
    match (flight_recorder, trace) with
    | None, _ -> Ok None
    | Some _, Some _ ->
        Error
          (Error.v Error.Bad_config ~who:"Exec.run_outcome"
             "flight_recorder and trace are mutually exclusive"
             ~context:spec_context)
    | Some cap, None -> (
        match Wfs_core.Tracelog.create ~capacity:cap () with
        | tr -> Ok (Some tr)
        | exception Invalid_argument msg ->
            Error
              (Error.v Error.Bad_config ~who:"Exec.run_outcome" msg
                 ~context:spec_context))
  in
  match (recorder, max_slots) with
  | Error e, _ -> Error e
  | Ok _, Some cap when spec.horizon > cap ->
      (* The slot loop is horizon-bounded, so runaway cost is declared up
         front: refuse jobs whose slot budget exceeds the cap instead of
         pretending to watch a loop that cannot diverge. *)
      Error
        (Error.v Error.Sim_fault ~who:"Exec.run_outcome"
           "slot budget exceeded"
           ~context:
             (spec_context
             @ [
                 ("horizon", string_of_int spec.horizon);
                 ("max_slots", string_of_int cap);
               ]))
  | Ok recorder, _ -> (
      let trace =
        match recorder with Some tr -> Some tr | None -> trace
      in
      let recorder_context () =
        match recorder with None -> [] | Some tr -> flight_context tr
      in
      match
        run ?credit_limit ?debit_limit ?limits ?hooks ?trace ?profiler
          ?histograms ?fast_path ?skip_stats spec
      with
      | metrics -> Ok metrics
      | exception exn ->
          let backtrace = Printexc.get_raw_backtrace () in
          Error
            (Error.add_context
               (spec_context @ recorder_context ())
               (Error.of_exn ~who:"Exec.run_outcome" ~backtrace exn)))
