(* Command-line driver: run any paper example, scenario file, or run spec
   with any registered scheduler.

   Examples:
     wfs_sim -e 1 -a all                    # Table-1-style grid
     wfs_sim -e 4 -a swapa -k predicted     # one variant of Example 4
     wfs_sim -e 1 -b 1.0 --csv              # memoryless channel, CSV output
     wfs_sim -e 6 --credit 2 --debit 0      # Example 6 with tighter caps
     wfs_sim -a WPS,IWFQ-I,CIF-Q            # registry names work directly
     wfs_sim --spec 'example:1?sum=0.5 | WPS | seed=7 | horizon=50000'
     wfs_sim -e 1 --seeds 5 --jobs 4        # 5 replicas/run, mean±CI cells

   Schedulers are resolved through Wfs_core.Registry (see --list), runs are
   typed Wfs_runner.Spec values, and replicas execute in parallel on a
   domain pool — output is identical for every --jobs value. *)

module Registry = Wfs_core.Registry
module Spec = Wfs_runner.Spec
module T = Wfs_util.Tablefmt
module M = Wfs_core.Metrics

type output = Table | Csv

(* Map the legacy family names (-a wrr -k both) onto registry names; pass
   anything else through the registry itself, so every canonical name and
   alias — "WPS", "IWFQ-I", "CIF-Q", comma-separated lists — works too. *)
let resolve_algorithms algo info =
  let infos =
    match info with
    | "ideal" -> [ "I" ]
    | "predicted" -> [ "P" ]
    | "both" -> [ "I"; "P" ]
    | s -> invalid_arg ("unknown knowledge: " ^ s)
  in
  let variants base = List.map (fun s -> base ^ "-" ^ s) infos in
  match String.lowercase_ascii algo with
  | "all" -> List.map (fun e -> e.Registry.name) (Registry.table1_extended ())
  | "blind" -> [ "Blind WRR" ]
  | "wrr" -> variants "WRR"
  | "noswap" -> variants "NoSwap"
  | "swapw" -> variants "SwapW"
  | "swapa" -> variants "SwapA"
  | "iwfq" -> variants "IWFQ"
  | "cifq" -> variants "CIF-Q"
  | "csdps" -> [ "CSDPS" ]
  | _ ->
      (* Registry names/aliases, possibly comma-separated.  get raises with
         the known-name list on a typo. *)
      String.split_on_char ',' algo
      |> List.map (fun name -> (Registry.get (String.trim name)).Registry.name)

type run_result = {
  metrics : M.t;
  jain_gap : (float * float) option;  (* windowed fairness, when requested *)
  instruments : Wfs_obs.Instruments.t option;  (* for --metrics-out *)
  skip : Wfs_core.Skip_stats.t option;  (* fast-path skip telemetry *)
}

(* Run every (label, spec) with [seeds] replicas crash-isolated on the
   domain pool and print one row per flow per label.  A replica that fails
   (raise, or slot budget refusal) loses only its own label: that label's
   rows are skipped, the typed errors are listed in a failure table, and
   the process exits 3 instead of aborting mid-sweep. *)
let run_and_render ~title ~output ~jobs ~seeds ~credit ~debit ~fairness
    ~retries ~max_slots ~invariants ~fast_path ~flow_base ~metrics_out
    ~trace_out ~trace_csv ~trace_stride ~profile ~flight_recorder
    ~windows_out ~window_slots labeled_specs =
  let replicated =
    List.map (fun (label, sp) -> (label, Spec.replicas seeds sp)) labeled_specs
  in
  let units = Array.of_list (List.concat_map snd replicated) in
  let tracing = trace_out <> None || trace_csv <> None in
  if tracing && Array.length units <> 1 then begin
    Printf.eprintf
      "wfs_sim: --trace-out/--trace-csv need exactly one run (one algorithm, \
       --seeds 1); got %d runs\n"
      (Array.length units);
    exit 2
  end;
  if windows_out <> None && Array.length units <> 1 then begin
    Printf.eprintf
      "wfs_sim: --windows needs exactly one run (one algorithm, --seeds 1); \
       got %d runs\n"
      (Array.length units);
    exit 2
  end;
  let sinks =
    if not tracing then []
    else begin
      let sp = units.(0) in
      let n_flows = Array.length (Wfs_runner.Exec.setups_of sp) in
      let hdr =
        Wfs_obs.Trace.header ~stride:trace_stride
          ~params:
            [
              ("sched", Wfs_util.Json.Str sp.Spec.sched);
              ("seed", Wfs_util.Json.Int sp.Spec.seed);
              ("horizon", Wfs_util.Json.Int sp.Spec.horizon);
            ]
          ~n_flows ()
      in
      List.filter_map Fun.id
        [
          Option.map (fun p -> Wfs_obs.Sink.jsonl ~path:p hdr) trace_out;
          Option.map (fun p -> Wfs_obs.Sink.csv ~path:p hdr) trace_csv;
        ]
    end
  in
  let profiler = if profile then Some (Wfs_obs.Profiler.create ()) else None in
  (* Every run goes through Exec.run_outcome, which owns registry lookup,
     the slot budget, the flight recorder and error classification; this
     driver only says which observers to attach.  Sinks and the profiler
     are shared mutable objects, so the caller forces --jobs 1 whenever
     they are present; everything else is built per run, on whichever
     domain runs it. *)
  let run (sp : Spec.t) =
    let instruments =
      if metrics_out <> None then Some (Wfs_obs.Instruments.create ()) else None
    in
    (* Skip telemetry records at window granularity and is deliberately
       NOT part of the fast path's degeneration condition: a --fast-path
       run stays compressed while counting what it skipped. *)
    let skip =
      if fast_path then Some (Wfs_core.Skip_stats.create ()) else None
    in
    let monitor = ref None and wcoll = ref None in
    (* Hooks run in list order: the invariant monitor first, so a
       violation stops the slot before anything reports it, then the
       probe, then the windowed observers.  Windowed aggregation is a
       per-slot hook here (it degenerates the fast path, like --fairness);
       topology runs sample at barriers instead and stay compressed. *)
    let hooks flows sched =
      let weights =
        Array.map (fun (f : Wfs_core.Params.flow) -> f.weight) flows
      in
      if fairness then
        monitor :=
          Some (Wfs_core.Fairness.Monitor.create ~weights ~window:100 ~sched);
      let probe =
        if instruments <> None || sinks <> [] then
          Some
            (Wfs_obs.Probe.create ~stride:trace_stride ~sinks ?instruments
               ~n_flows:(Array.length flows) sched)
        else None
      in
      wcoll :=
        Option.map
          (fun _ -> Wfs_xray.Windowed.create ~weights ~window:window_slots)
          windows_out;
      List.filter_map Fun.id
        [
          (if invariants then Some (Wfs_core.Invariant.hook sched) else None);
          probe;
          Option.map Wfs_core.Fairness.Monitor.hook !monitor;
          Option.map Wfs_xray.Windowed.hook !wcoll;
        ]
    in
    Wfs_runner.Exec.run_outcome ~credit_limit:credit ~debit_limit:debit
      ~hooks
      ?profiler:(Option.map Wfs_obs.Profiler.hooks profiler)
      ?flight_recorder ~fast_path ?skip_stats:skip ?max_slots sp
    |> Result.map (fun metrics ->
           (match (!wcoll, windows_out) with
           | Some w, Some path ->
               Wfs_xray.Windowed.flush w ~slot:(sp.Spec.horizon - 1) ~metrics;
               Wfs_xray.Windowed.write ~path ~window:window_slots
                 (Wfs_xray.Windowed.windows w)
           | _ -> ());
           {
             metrics;
             jain_gap =
               Option.map
                 (fun mon ->
                   ( Wfs_core.Fairness.Monitor.mean_jain mon,
                     Wfs_core.Fairness.Monitor.worst_gap mon ))
                 !monitor;
             instruments;
             skip;
           })
  in
  let outcomes = Wfs_runner.Pool.map_outcomes ~jobs ~retries run units in
  List.iter Wfs_obs.Sink.close sinks;
  let columns =
    [ "algorithm"; "flow"; "mean_delay"; "loss"; "max_delay"; "stddev"; "thpt" ]
    @ (if fairness then [ "jain"; "worst_gap" ] else [])
  in
  let table = T.create ~title ~columns in
  let csv_rows = ref [] in
  let failures = ref [] in
  let emit cells =
    match output with
    | Table -> T.add_row table cells
    | Csv -> csv_rows := String.concat "," cells :: !csv_rows
  in
  (* One rendered cell per flow: the plain value for a single replica,
     mean±CI across several. *)
  let agg = T.cell_of_replicas in
  List.iteri
    (fun li (label, specs) ->
      let outs = Array.to_list (Array.sub outcomes (li * seeds) seeds) in
      match List.filter_map Result.to_option outs with
      | reps when List.length reps < seeds ->
          List.iter2
            (fun sp out ->
              match out with
              | Error e -> failures := (Spec.to_string sp, e) :: !failures
              | Ok _ -> ())
            specs outs
      | reps ->
          let horizon = (List.hd specs).Spec.horizon in
          for i = 0 to M.n_flows (List.hd reps).metrics - 1 do
            let base =
              [
                label;
                string_of_int (i + flow_base);
                agg reps (fun r -> M.mean_delay r.metrics ~flow:i);
                agg ~decimals:4 reps (fun r -> M.loss r.metrics ~flow:i);
                agg reps (fun r -> M.max_delay r.metrics ~flow:i);
                agg reps (fun r -> M.stddev_delay r.metrics ~flow:i);
                agg ~decimals:4 reps (fun r ->
                    M.throughput r.metrics ~flow:i ~slots:horizon);
              ]
            in
            let extra =
              if fairness then
                [
                  agg ~decimals:4 reps (fun r -> fst (Option.get r.jain_gap));
                  agg reps (fun r -> snd (Option.get r.jain_gap));
                ]
              else []
            in
            emit (base @ extra)
          done)
    replicated;
  (match output with
  | Table -> T.print table
  | Csv ->
      print_endline (String.concat "," columns);
      List.iter print_endline (List.rev !csv_rows));
  (* Fast-path skip telemetry, merged across runs in unit order.  stderr
     under --csv so the golden-gated stdout stays byte-identical. *)
  let skip_merged =
    Wfs_xray.Skip_telemetry.merge_all
      (Array.to_list outcomes
      |> List.filter_map (function
           | Ok { skip = Some k; _ } -> Some k
           | Ok _ | Error _ -> None))
  in
  (match skip_merged with
  | None -> ()
  | Some k ->
      let t = Wfs_xray.Skip_telemetry.to_table k in
      (match output with
      | Table -> T.print t
      | Csv -> output_string stderr (T.render t)));
  (match metrics_out with
  | None -> ()
  | Some path -> (
      let registries =
        Array.to_list outcomes
        |> List.filter_map (function
             | Ok { instruments = Some r; _ } -> Some r
             | Ok _ | Error _ -> None)
      in
      match registries with
      | [] -> ()  (* every run failed; the failure table tells the story *)
      | registries ->
          let merged = Wfs_obs.Instruments.merge_all registries in
          let t = Wfs_obs.Instruments.to_table ~title:"probe instruments" merged in
          let art_tables =
            [ Wfs_runner.Artifact.table_of t ]
            @
            match skip_merged with
            | Some k -> [ Wfs_xray.Skip_telemetry.artifact_table k ]
            | None -> []
          in
          let sp0 = units.(0) in
          let slots =
            Array.fold_left
              (fun acc (sp : Spec.t) -> acc + sp.Spec.horizon)
              0 units
          in
          (* jobs and wall_clock_s are normalised (1 / 0.) so the artifact
             is byte-identical for every --jobs value — registries merge in
             unit order regardless of which domain ran what. *)
          let art =
            Wfs_runner.Artifact.v ~horizon:sp0.Spec.horizon ~seed:sp0.Spec.seed
              ~seeds ~jobs:1 ~runs:(Array.length units) ~slots
              ~wall_clock_s:0. ~tables:art_tables
          in
          Wfs_runner.Artifact.write ~path art));
  (match profiler with
  | None -> ()
  | Some prof ->
      let slots =
        Array.fold_left (fun acc (sp : Spec.t) -> acc + sp.Spec.horizon) 0 units
      in
      let phase = Wfs_obs.Profiler.phase_table ~slots prof in
      (* stderr under --csv, so piped output stays parseable *)
      (match output with
      | Table -> T.print phase
      | Csv -> output_string stderr (T.render phase)));
  match List.rev !failures with
  | [] -> ()
  | failures ->
      (* stderr, so piped --csv output stays parseable *)
      Printf.eprintf "\n=== Failed runs (%d) ===\n" (List.length failures);
      List.iter
        (fun (key, e) ->
          Printf.eprintf "  %s\n    %s\n" key (Wfs_util.Error.to_string e))
        failures;
      exit 3

(* Everything one finished topology run contributes to the rendered
   output — also the payload a Topo_journal result line carries, so a
   resumed driver can replay a completed spec without re-running it. *)
type topo_run = {
  t_metrics : M.t;
  t_homes : int array;
  t_n_cells : int;
  t_handoffs : int;
  t_instruments : Wfs_obs.Instruments.t;
  t_chaos : Wfs_obs.Instruments.t option;
  t_timeline : Wfs_chaos.Chaos.event list;
}

let topo_run_to_json r =
  let module J = Wfs_util.Json in
  J.Obj
    ([
       ("metrics", M.to_json r.t_metrics);
       ( "homes",
         J.Arr (Array.to_list (Array.map (fun c -> J.Int c) r.t_homes)) );
       ("n_cells", J.Int r.t_n_cells);
       ("handoffs", J.Int r.t_handoffs);
       ("instruments", Wfs_obs.Instruments.to_json r.t_instruments);
     ]
    @ (match r.t_chaos with
      | Some ins -> [ ("chaos", Wfs_obs.Instruments.to_json ins) ]
      | None -> [])
    @
    match r.t_timeline with
    | [] -> []
    | tl ->
        [ ("timeline", J.Arr (List.map Wfs_chaos.Chaos.event_to_json tl)) ])

let topo_run_of_json j =
  let module J = Wfs_util.Json in
  let ( let* ) = Option.bind in
  let* metrics = Option.bind (J.member "metrics" j) M.of_json in
  let* homes = Option.bind (J.member "homes" j) J.to_list in
  let* homes =
    List.fold_right
      (fun v acc ->
        match (J.to_int v, acc) with
        | Some c, Some tl -> Some (c :: tl)
        | _ -> None)
      homes (Some [])
  in
  let* n_cells = Option.bind (J.member "n_cells" j) J.to_int in
  let* handoffs = Option.bind (J.member "handoffs" j) J.to_int in
  let* instruments =
    Option.bind (J.member "instruments" j) Wfs_obs.Instruments.of_json
  in
  let* chaos =
    match J.member "chaos" j with
    | None -> Some None
    | Some c -> Option.map Option.some (Wfs_obs.Instruments.of_json c)
  in
  let* timeline =
    match J.member "timeline" j with
    | None -> Some []
    | Some tl ->
        Option.bind (J.to_list tl) (fun events ->
            List.fold_right
              (fun e acc ->
                match (Wfs_chaos.Chaos.event_of_json e, acc) with
                | Some ev, Some tl -> Some (ev :: tl)
                | _ -> None)
              events (Some []))
  in
  Some
    {
      t_metrics = metrics;
      t_homes = Array.of_list homes;
      t_n_cells = n_cells;
      t_handoffs = handoffs;
      t_instruments = instruments;
      t_chaos = chaos;
      t_timeline = timeline;
    }

(* Multi-cell runs go through Wfs_topo.Topology instead of the replica
   pool: cells shard over the domain pool inside one run, handoffs apply
   at epoch barriers, and the rendered table is global-flow-id indexed
   with a home-cell column.  Byte-identical for every --jobs value.

   Specs are crash-isolated like the replica pool's runs: a spec that
   fails (worker-fault budget exceeded, invariant violation) loses only
   its own rows — the typed errors land in a stderr failure table and the
   process exits 3.  With --resume, completed specs replay from the topo
   journal and an interrupted spec is re-run with every already-journaled
   barrier snapshot verified against the replay. *)
let render_topo ~title ~output ~jobs ~credit ~debit ~invariants ~fast_path
    ~metrics_out ~resume ~fault_timeline ~trace_out ~trace_csv ~trace_stride
    ~causality_out ~windows_out ~window_slots labeled_specs =
  let module J = Wfs_util.Json in
  let module TJ = Wfs_topo.Topo_journal in
  let observing =
    trace_out <> None || trace_csv <> None || causality_out <> None
    || windows_out <> None
  in
  if observing && List.length labeled_specs <> 1 then begin
    Printf.eprintf
      "wfs_sim: --trace-out/--trace-csv/--causality/--windows need exactly \
       one topology run (one algorithm, one spec); got %d runs\n"
      (List.length labeled_specs);
    exit 2
  end;
  let columns =
    [
      "algorithm"; "flow"; "cell"; "mean_delay"; "loss"; "max_delay"; "stddev";
      "thpt";
    ]
  in
  let table = T.create ~title ~columns in
  let csv_rows = ref [] in
  let emit cells =
    match output with
    | Table -> T.add_row table cells
    | Csv -> csv_rows := String.concat "," cells :: !csv_rows
  in
  let params =
    [
      ("credit", J.Int credit);
      ("debit", J.Int debit);
      ("invariants", J.Bool invariants);
      ("fast_path", J.Bool fast_path);
    ]
  in
  let journal = Option.map (fun path -> TJ.resume ~path ~params) resume in
  let failures = ref [] in
  let runs = ref [] in
  List.iter
    (fun (label, (sp : Spec.t)) ->
      let key = Spec.to_string sp in
      let replayed =
        Option.bind journal (fun (c, _) -> TJ.find_result c ~spec:key)
      in
      match replayed with
      | Some payload -> (
          match topo_run_of_json payload with
          | Some r -> runs := (label, sp, r) :: !runs
          | None ->
              Wfs_util.Error.bad_spec ~who:"wfs_sim"
                "unreadable topo-journal result" ~context:[ ("spec", key) ])
      | None -> (
          (* Per-cell tracing: each cell's probe writes to that cell's own
             part file during the parallel phase; rosters and causality
             events are recorded only from the sequential barrier.  The
             merge after the run is positional, so traced topology runs
             need no --jobs restriction. *)
          let mux =
            if trace_out = None && trace_csv = None then None
            else
              let cells =
                match sp.Spec.topo with Some tp -> tp.Spec.cells | None -> 1
              in
              let part_base =
                match trace_out with
                | Some p -> p
                | None -> Option.get trace_csv
              in
              Some
                (Wfs_xray.Mux.create ~stride:trace_stride
                   ~params:
                     [
                       ("sched", J.Str sp.Spec.sched);
                       ("seed", J.Int sp.Spec.seed);
                       ("horizon", J.Int sp.Spec.horizon);
                     ]
                   ~cells ~part_base ())
          in
          let cause =
            Option.map (fun _ -> Wfs_xray.Causality.create ()) causality_out
          in
          let tap =
            match (mux, cause) with
            | None, None -> None
            | _ ->
                Some
                  {
                    Wfs_topo.Cell.on_roster =
                      (fun ~cell ~slot ~gids ->
                        match mux with
                        | Some m -> Wfs_xray.Mux.note_roster m ~cell ~slot ~gids
                        | None -> ());
                    probe =
                      (fun ~cell ~n_flows sched ->
                        Option.map
                          (fun m -> Wfs_xray.Mux.probe m ~cell ~n_flows sched)
                          mux);
                    on_carry =
                      (fun ~cell ~slot ~gid ~carried ~accepted ->
                        match cause with
                        | Some c ->
                            Wfs_xray.Causality.record c
                              (Wfs_xray.Causality.Carry
                                 { slot; flow = gid; cell; carried; accepted })
                        | None -> ());
                  }
          in
          match
            let t =
              Wfs_topo.Topology.of_spec ~credit_limit:credit
                ~debit_limit:debit ~invariants ~fast_path ?tap
                ?causality:cause sp
            in
            let journal_cb =
              Option.map
                (fun (contents, w) ~slot ->
                  let snap = Wfs_topo.Topology.snapshot t ~slot in
                  match TJ.find_snapshot contents ~spec:key ~slot with
                  | Some recorded ->
                      if
                        not
                          (String.equal
                             (J.to_string ~pretty:false snap)
                             (J.to_string ~pretty:false recorded))
                      then
                        Wfs_util.Error.bad_spec ~who:"wfs_sim"
                          "topo journal diverges from replay"
                          ~context:
                            [
                              ("spec", key);
                              ("slot", string_of_int slot);
                              ("journal", J.to_string ~pretty:false recorded);
                              ("replay", J.to_string ~pretty:false snap);
                            ]
                  | None -> TJ.append_snapshot w ~spec:key ~slot snap)
                journal
            in
            (* Windowed aggregation samples the cumulative picture at each
               barrier — the fast path stays compressed, and [start_slot]/
               [end_slot] record the span the sampling actually covered. *)
            let wcoll =
              Option.map
                (fun _ ->
                  Wfs_xray.Windowed.create
                    ~weights:(Wfs_topo.Topology.weights t)
                    ~window:window_slots)
                windows_out
            in
            let on_barrier =
              match (journal_cb, wcoll) with
              | None, None -> None
              | jc, wc ->
                  Some
                    (fun ~slot ->
                      (match jc with Some f -> f ~slot | None -> ());
                      match wc with
                      | Some w ->
                          Wfs_xray.Windowed.observe w ~slot:(slot - 1)
                            ~metrics:(Wfs_topo.Topology.peek_metrics t)
                      | None -> ())
            in
            Wfs_topo.Topology.run ~jobs ?on_barrier t;
            let r =
              {
                t_metrics = Wfs_topo.Topology.metrics t;
                t_homes = Wfs_topo.Topology.homes t;
                t_n_cells = Wfs_topo.Topology.n_cells t;
                t_handoffs = Wfs_topo.Topology.handoffs t;
                t_instruments = Wfs_topo.Topology.instruments t;
                t_chaos = Wfs_topo.Topology.chaos_instruments t;
                t_timeline = Wfs_topo.Topology.fault_timeline t;
              }
            in
            (match wcoll with
            | Some w ->
                Wfs_xray.Windowed.flush w ~slot:(sp.Spec.horizon - 1)
                  ~metrics:r.t_metrics;
                Wfs_xray.Windowed.write
                  ~path:(Option.get windows_out)
                  ~window:window_slots
                  (Wfs_xray.Windowed.windows w)
            | None -> ());
            (match cause with
            | Some c ->
                Wfs_xray.Causality.write
                  ~path:(Option.get causality_out)
                  (Wfs_xray.Causality.events c)
            | None -> ());
            (match mux with
            | Some m ->
                Wfs_xray.Mux.finish m
                  ~n_flows:(Wfs_topo.Topology.n_flows t)
                  ?jsonl:trace_out ?csv:trace_csv ()
            | None -> ());
            Option.iter
              (fun (_, w) ->
                TJ.append_result w ~spec:key (topo_run_to_json r))
              journal;
            r
          with
          | r -> runs := (label, sp, r) :: !runs
          | exception Wfs_util.Error.Error e ->
              Option.iter Wfs_xray.Mux.abort mux;
              failures := (key, e) :: !failures))
    labeled_specs;
  Option.iter (fun (_, w) -> TJ.close w) journal;
  let runs = List.rev !runs in
  let total_slots = ref 0 in
  List.iter
    (fun (label, (sp : Spec.t), r) ->
      (* Spec labels may carry the topology clause's commas: quote them so
         the CSV stays parseable. *)
      let label =
        if output = Csv && String.contains label ',' then "\"" ^ label ^ "\""
        else label
      in
      let m = r.t_metrics in
      total_slots := !total_slots + (sp.Spec.horizon * r.t_n_cells);
      for gid = 0 to M.n_flows m - 1 do
        emit
          [
            label;
            string_of_int gid;
            string_of_int r.t_homes.(gid);
            T.cell_of_float (M.mean_delay m ~flow:gid);
            T.cell_of_float ~decimals:4 (M.loss m ~flow:gid);
            T.cell_of_float (M.max_delay m ~flow:gid);
            T.cell_of_float (M.stddev_delay m ~flow:gid);
            T.cell_of_float ~decimals:4
              (M.throughput m ~flow:gid ~slots:sp.Spec.horizon);
          ]
      done)
    runs;
  (match output with
  | Table -> T.print table
  | Csv ->
      print_endline (String.concat "," columns);
      List.iter print_endline (List.rev !csv_rows));
  Option.iter
    (fun path ->
      Wfs_chaos.Chaos.write_timeline ~path
        (List.map (fun (_, sp, r) -> (Spec.to_string sp, r.t_timeline)) runs))
    fault_timeline;
  (match metrics_out with
  | None -> ()
  | Some path -> (
      match runs with
      | [] -> ()  (* every spec failed; the failure table tells the story *)
      | runs ->
          let merged =
            Wfs_obs.Instruments.merge_all
              (List.map (fun (_, _, r) -> r.t_instruments) runs)
          in
          let t =
            Wfs_obs.Instruments.to_table ~title:"topology instruments" merged
          in
          let tables = ref [ Wfs_runner.Artifact.table_of t ] in
          (* Chaos telemetry rides along as a second table — only when
             some spec actually ran with an active fault plan, so
             zero-fault artifacts stay byte-identical to pre-chaos
             ones. *)
          (match List.filter_map (fun (_, _, r) -> r.t_chaos) runs with
          | [] -> ()
          | chaos_regs ->
              let ct =
                Wfs_obs.Instruments.to_table ~title:"chaos instruments"
                  (Wfs_obs.Instruments.merge_all chaos_regs)
              in
              tables := !tables @ [ Wfs_runner.Artifact.table_of ct ]);
          let sp0 =
            match runs with (_, sp, _) :: _ -> sp | [] -> assert false
          in
          (* jobs normalised to 1 so the artifact is byte-identical for
             every --jobs value, same convention as the replica-pool
             path. *)
          let art =
            Wfs_runner.Artifact.v ~horizon:sp0.Spec.horizon
              ~seed:sp0.Spec.seed ~seeds:1 ~jobs:1 ~runs:(List.length runs)
              ~slots:!total_slots ~wall_clock_s:0. ~tables:!tables
          in
          Wfs_runner.Artifact.write ~path art));
  match List.rev !failures with
  | [] -> ()
  | failures ->
      (* stderr, so piped --csv output stays parseable *)
      Printf.eprintf "\n=== Failed topology runs (%d) ===\n"
        (List.length failures);
      List.iter
        (fun (key, e) ->
          Printf.eprintf "  %s\n    %s\n" key (Wfs_util.Error.to_string e))
        failures;
      exit 3

let title_info ~seeds ~seed ~horizon =
  if seeds > 1 then
    Printf.sprintf "seeds=%d..%d, horizon=%d slots" seed (seed + seeds - 1)
      horizon
  else Printf.sprintf "seed=%d, horizon=%d slots" seed horizon

let list_schedulers () =
  let t = T.create ~title:"Registered schedulers" ~columns:[ "name"; "aliases" ] in
  List.iter
    (fun name ->
      let e = Registry.get name in
      T.add_row t [ e.Registry.name; String.concat ", " e.Registry.aliases ])
    (Registry.names ());
  T.print t

(* Artifact validation (--check-trace / --check-metrics): load, summarise,
   exit.  CI runs these on the files it just produced. *)
let check_trace path =
  match Wfs_obs.Trace.load ~path with
  | Ok c ->
      Printf.printf "%s: ok (%d flow(s), stride %d, %d sample(s))\n" path
        c.Wfs_obs.Trace.hdr.Wfs_obs.Trace.n_flows
        c.Wfs_obs.Trace.hdr.Wfs_obs.Trace.stride
        (List.length c.Wfs_obs.Trace.samples);
      exit 0
  | Error e ->
      Printf.eprintf "wfs_sim: %s: %s\n" path (Wfs_util.Error.to_string e);
      exit 2

let check_metrics path =
  match Wfs_runner.Artifact.read path with
  | Ok a ->
      Printf.printf "%s: ok (%s, %d table(s), %d run(s), %d slots)\n" path
        a.Wfs_runner.Artifact.schema
        (List.length a.Wfs_runner.Artifact.tables)
        a.Wfs_runner.Artifact.runs a.Wfs_runner.Artifact.slots;
      exit 0
  | Error msg ->
      Printf.eprintf "wfs_sim: %s: %s\n" path msg;
      exit 2

let main_checked example seed horizon sum credit debit csv fairness algo info
    scenario specs seeds jobs list retries max_slots invariants fast_path
    metrics_out trace_out trace_csv trace_stride profile flight_recorder cells
    mobility epoch faults resume fault_timeline causality windows window_slots
    check_trace_path check_metrics_path =
  (match check_trace_path with Some p -> check_trace p | None -> ());
  (match check_metrics_path with Some p -> check_metrics p | None -> ());
  let output = if csv then Csv else Table in
  if seeds < 1 then (
    Printf.eprintf "wfs_sim: --seeds must be >= 1, got %d\n" seeds;
    exit 2);
  if retries < 0 then (
    Printf.eprintf "wfs_sim: --retries must be >= 0, got %d\n" retries;
    exit 2);
  (match jobs with
  | Some n when n < 1 ->
      Printf.eprintf "wfs_sim: --jobs must be >= 1, got %d\n" n;
      exit 2
  | _ -> ());
  (match max_slots with
  | Some n when n < 1 ->
      Printf.eprintf "wfs_sim: --max-slots must be >= 1, got %d\n" n;
      exit 2
  | _ -> ());
  if trace_stride < 1 then (
    Printf.eprintf "wfs_sim: --trace-stride must be >= 1, got %d\n" trace_stride;
    exit 2);
  if window_slots < 1 then (
    Printf.eprintf "wfs_sim: --window-slots must be >= 1, got %d\n" window_slots;
    exit 2);
  (match flight_recorder with
  | Some n when n < 1 ->
      Printf.eprintf "wfs_sim: --flight-recorder must be >= 1, got %d\n" n;
      exit 2
  | _ -> ());
  let jobs =
    match jobs with Some n -> n | None -> Wfs_runner.Pool.default_jobs ()
  in
  (* Trace sinks, the windowed collector and the profiler are shared
     mutable state on the SINGLE-CELL replica pool: serialise it so samples
     land in slot order and timings aren't interleaved.  Topology runs are
     exempt — their tracing goes through per-cell part files merged at the
     end, so they keep the requested job count. *)
  let serial_jobs =
    if trace_out <> None || trace_csv <> None || profile || windows <> None
    then 1
    else jobs
  in
  let render =
    run_and_render ~output ~jobs:serial_jobs ~seeds ~credit ~debit ~fairness
      ~retries ~max_slots ~invariants ~fast_path ~metrics_out ~trace_out
      ~trace_csv ~trace_stride ~profile ~flight_recorder
      ~windows_out:windows ~window_slots
  in
  if list then list_schedulers ()
  else begin
    (* Spec.topo/Spec.faults validate their fields; Invalid_argument is
       turned into a clean exit by [main]. *)
    let fault_plan =
      match faults with
      | None -> None
      | Some s -> (
          match Spec.faults_of_string s with
          | Ok p -> Some p
          | Error msg ->
              Printf.eprintf "wfs_sim: --faults: %s\n" msg;
              exit 2)
    in
    let topo_clause =
      if cells > 1 then
        let tp = Spec.topo ~cells ~mobility ~epoch in
        Some
          (match fault_plan with
          | Some p -> Spec.with_faults p tp
          | None -> tp)
      else begin
        (match fault_plan with
        | Some _ ->
            Printf.eprintf
              "wfs_sim: --faults needs a multi-cell run (--cells > 1); give \
               --spec its own faults=... field instead\n";
            exit 2
        | None -> ());
        None
      end
    in
    let title, flow_base, labeled =
      if specs <> [] then
        (* Explicit run specs: each is its own experiment id. *)
        let labeled =
          List.map
            (fun s -> (Spec.to_string s, s))
            (List.map Spec.of_string_exn specs)
        in
        (Printf.sprintf "%d run spec(s)" (List.length labeled), 1, labeled)
      else
        let algorithms = resolve_algorithms algo info in
        match scenario with
        | Some path ->
            (* An explicit -s/-n overrides the file's directive. *)
            let labeled =
              List.map
                (fun name ->
                  (name, Spec.of_scenario_file ~sched:name ?seed ?horizon path))
                algorithms
            in
            let sp = snd (List.hd labeled) in
            ( Printf.sprintf "%s (%s)" path
                (title_info ~seeds ~seed:sp.Spec.seed ~horizon:sp.Spec.horizon),
              0,
              labeled )
        | None ->
            let seed = Option.value seed ~default:Spec.default_seed in
            let horizon = Option.value horizon ~default:Spec.default_horizon in
            let scn =
              Spec.example ?sum:(if example <= 2 then Some sum else None) example
            in
            let labeled =
              List.map
                (fun name -> (name, Spec.make ~seed ~horizon ~sched:name scn))
                algorithms
            in
            ( Printf.sprintf "Example %d (%s)" example
                (title_info ~seeds ~seed ~horizon),
              1,
              labeled )
    in
    let labeled =
      match topo_clause with
      | None -> labeled
      | Some tp when specs = [] ->
          List.map (fun (l, sp) -> (l, Spec.with_topo tp sp)) labeled
      | Some _ ->
          Printf.eprintf
            "wfs_sim: --cells applies to -e/--scenario runs; give --spec its \
             own topology clause (cells=K,mobility=R,epoch=E)\n";
          exit 2
    in
    let topo_runs, plain =
      List.partition (fun (_, sp) -> sp.Spec.topo <> None) labeled
    in
    match topo_runs with
    | [] ->
        if resume <> None || fault_timeline <> None then begin
          Printf.eprintf
            "wfs_sim: --resume/--fault-timeline apply to topology runs only \
             (--cells > 1 or a spec with a topology clause)\n";
          exit 2
        end;
        if causality <> None then begin
          Printf.eprintf
            "wfs_sim: --causality applies to topology runs only (--cells > 1 \
             or a spec with a topology clause)\n";
          exit 2
        end;
        render ~title ~flow_base plain
    | _ ->
        if plain <> [] then begin
          Printf.eprintf
            "wfs_sim: cannot mix topology and single-cell runs in one \
             invocation\n";
          exit 2
        end;
        if seeds <> 1 then begin
          Printf.eprintf "wfs_sim: topology runs support --seeds 1 only\n";
          exit 2
        end;
        if fairness || profile || flight_recorder <> None || max_slots <> None
        then begin
          Printf.eprintf
            "wfs_sim: --fairness/--profile/--flight-recorder/--max-slots are \
             not supported for topology runs\n";
          exit 2
        end;
        render_topo ~title ~output ~jobs ~credit ~debit ~invariants
          ~fast_path ~metrics_out ~resume ~fault_timeline ~trace_out
          ~trace_csv ~trace_stride ~causality_out:causality
          ~windows_out:windows ~window_slots topo_runs
  end

(* Bad scheduler names, malformed specs and out-of-range examples all raise
   Invalid_argument (or a typed Bad_spec error) with a helpful message —
   turn them into a clean exit. *)
let main example seed horizon sum credit debit csv fairness algo info scenario
    specs seeds jobs list retries max_slots invariants fast_path metrics_out
    trace_out trace_csv trace_stride profile flight_recorder cells mobility
    epoch faults resume fault_timeline causality windows window_slots
    check_trace_path check_metrics_path =
  try
    main_checked example seed horizon sum credit debit csv fairness algo info
      scenario specs seeds jobs list retries max_slots invariants fast_path
      metrics_out trace_out trace_csv trace_stride profile flight_recorder
      cells mobility epoch faults resume fault_timeline causality windows
      window_slots check_trace_path check_metrics_path
  with
  | Invalid_argument msg ->
      Printf.eprintf "wfs_sim: %s\n" msg;
      exit 2
  | Wfs_util.Error.Error e ->
      Printf.eprintf "wfs_sim: %s\n" (Wfs_util.Error.to_string e);
      exit 2

open Cmdliner

let example_arg =
  Arg.(value & opt int 1 & info [ "e"; "example" ] ~doc:"Paper example (1-6).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "seed" ]
        ~doc:
          (Printf.sprintf
             "PRNG seed (default %d).  Overrides a $(b,--scenario) file's \
              seed directive."
             Spec.default_seed))

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "horizon" ]
        ~doc:
          (Printf.sprintf
             "Slots to simulate (default %d).  Overrides a $(b,--scenario) \
              file's horizon directive."
             Spec.default_horizon))

let sum_arg =
  Arg.(
    value & opt float 0.1
    & info [ "b"; "burstiness" ]
        ~doc:"pg+pe for examples 1-2 (0.1 bursty ... 1.0 memoryless).")

let credit_arg =
  Arg.(value & opt int 4 & info [ "credit" ] ~doc:"Credit cap (WPS variants).")

let debit_arg =
  Arg.(value & opt int 4 & info [ "debit" ] ~doc:"Debit cap (SwapA).")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")

let fairness_arg =
  Arg.(
    value & flag
    & info [ "fairness" ]
        ~doc:"Also report windowed Jain index and worst normalised-service gap.")

let algo_arg =
  Arg.(
    value & opt string "all"
    & info [ "a"; "algorithm" ]
        ~doc:
          "Scheduler(s): a legacy family name (all, blind, wrr, noswap, swapw, \
           swapa, iwfq, cifq, csdps — combined with $(b,-k)), or \
           comma-separated registry names/aliases (see $(b,--list)), e.g. \
           'WPS,IWFQ-I,CIF-Q'.")

let info_arg =
  Arg.(
    value & opt string "both"
    & info [ "k"; "knowledge" ] ~doc:"Channel knowledge: ideal, predicted, both.")

let scenario_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "scenario" ]
        ~doc:
          "Run a scenario file instead of a paper example (see \
           lib/core/scenario.mli for the format).")

let spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "spec" ]
        ~doc:
          "Run an explicit run spec, e.g. 'example:1?sum=0.5 | WPS | seed=7 | \
           horizon=50000' or 'file:cell.scenario | IWFQ | seed=1 | \
           horizon=100000'.  Repeatable; overrides $(b,-e)/$(b,-a).")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ]
        ~doc:
          "Replicas per run (consecutive seeds); with K > 1, cells show mean \
           ± 95% CI.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ]
        ~doc:"Worker domains (default: all cores).  Output is jobs-invariant.")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"List registered schedulers and aliases, then exit.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ]
        ~doc:
          "Extra attempts per failed run (same RNG stream, so a retry that \
           succeeds is byte-identical to a first-attempt success).")

let max_slots_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-slots" ]
        ~doc:
          "Deterministic slot-budget watchdog: refuse any run whose horizon \
           exceeds N slots instead of executing it.")

let fast_path_arg =
  Arg.(
    value & flag
    & info [ "fast-path" ]
        ~doc:
          "Run the event-compressed slot engine: quiescent windows (no \
           backlog, no scheduled arrival) are advanced in closed form \
           instead of slot by slot.  Byte-identical results by \
           construction; automatically degenerates to the reference loop \
           when per-slot telemetry ($(b,--trace-out), $(b,--metrics-out), \
           $(b,--profile), $(b,--check-invariants), $(b,--fairness)) is \
           attached.")

let invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Run the paper-property monitors (virtual-time monotonicity, \
           finish-tag sanity, credit bounds, lag conservation, work \
           conservation) on every slot; a violation fails that run.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Record probe instruments (sample/idle counters, backlog \
           histogram, virtual-time/lag gauges) for every run and write the \
           merged table as a wfs-bench/1 JSON artifact.  Byte-identical for \
           every $(b,--jobs) value.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream a per-slot wfs-trace/1 JSONL time series (queue depths, \
           channel states, scheduler tags/credits/virtual time) to FILE.  \
           Needs exactly one run (one algorithm, $(b,--seeds) 1); forces \
           $(b,--jobs) 1.  A topology run ($(b,--cells) > 1) writes a \
           merged cell-tagged wfs-xray-trace/1 timeline instead and keeps \
           the requested job count (per-cell part files, deterministic \
           merge).")

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
          "Time each slot-loop phase (arrivals, predict, drops, select, \
           transmit, slot-end) with a monotonic clock and print a phase \
           table (stderr under $(b,--csv)).  Forces $(b,--jobs) 1.")

let flight_recorder_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-recorder" ] ~docv:"N"
        ~doc:
          "Keep a ring buffer of the last N trace events per run; when a \
           run fails, they ride along in its failure-table entry.")

let cells_arg =
  Arg.(
    value & opt int 1
    & info [ "cells" ] ~docv:"K"
        ~doc:
          "Multi-cell topology: with K > 1 the scenario is instantiated once \
           per cell (statistically independent seeds) and the cells run in \
           lockstep epochs, sharded over the $(b,--jobs) domain pool, with \
           Section 5/7 handoff state carried at epoch barriers.  Output is \
           jobs-invariant.")

let mobility_arg =
  Arg.(
    value & opt float 0.
    & info [ "mobility" ] ~docv:"R"
        ~doc:
          "Per-flow handoff probability at each epoch barrier (multi-cell \
           runs; default 0: no handoffs).")

let epoch_arg =
  Arg.(
    value & opt int 500
    & info [ "epoch" ] ~docv:"N"
        ~doc:"Slots per lockstep epoch between handoff barriers (multi-cell \
              runs).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault plan for a multi-cell run ($(b,--cells) > 1): \
           'crash:R;recover:R;lose:R;corrupt:R;blackout:RxN;exn:R;persist:R;\
           budget:N'.  All draws happen at epoch barriers from the plan's \
           own seeded stream, so faulted runs stay byte-identical for every \
           $(b,--jobs) value.  Crashed cells degrade gracefully: their flows \
           re-home to surviving cells under the Section 5/7 carry ledger.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Epoch-checkpoint journal for topology runs \
           (wfs-bench/1-topo-journal).  A fresh run writes one snapshot per \
           epoch barrier; a killed run re-invoked with the same FILE replays \
           completed specs from the journal and re-runs the interrupted one, \
           verifying every already-journaled barrier against the replay.")

let fault_timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-timeline" ] ~docv:"FILE"
        ~doc:
          "Write the chronological fault timeline of a topology run \
           (wfs-chaos/1-timeline JSONL: crashes, recoveries, lost/corrupt/\
           blocked handoffs, blackouts, worker faults) to FILE.")

let causality_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "causality" ] ~docv:"FILE"
        ~doc:
          "Write the flow-journey causality log of a topology run \
           (wfs-causality/1 JSONL: every mobility draw with its chaos \
           verdict, every crash re-home, and every carry import with the \
           lag/credit actually accepted vs carried) to FILE.  Needs exactly \
           one topology run; recorded at the sequential epoch barrier, so \
           the log is byte-identical for every $(b,--jobs) value.")

let windows_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "windows" ] ~docv:"FILE"
        ~doc:
          "Write a wfs-windows/1 tumbling-window aggregation stream (Jain \
           index, eq-(1) normalized-service gap, arrival/delivery/drop/\
           backlog/loss deltas per window) to FILE.  Single-cell runs \
           sample every slot (needs exactly one run; forces $(b,--jobs) 1); \
           topology runs sample at epoch barriers and keep the requested \
           job count.")

let window_slots_arg =
  Arg.(
    value & opt int 1000
    & info [ "window-slots" ] ~docv:"N"
        ~doc:"Tumbling-window length in slots for $(b,--windows) (default \
              1000).")

let check_trace_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-trace" ] ~docv:"FILE"
        ~doc:
          "Validate a wfs-trace/1 file written by $(b,--trace-out), print a \
           summary, and exit (0 valid, 2 corrupt).")

let check_metrics_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-metrics" ] ~docv:"FILE"
        ~doc:
          "Validate a metrics artifact written by $(b,--metrics-out), print \
           a summary, and exit (0 valid, 2 corrupt).")

let cmd =
  let doc = "Wireless fair scheduling simulator (Lu/Bharghavan/Srikant 1997)" in
  Cmd.v
    (Cmd.info "wfs_sim" ~doc)
    Term.(
      const main $ example_arg $ seed_arg $ horizon_arg $ sum_arg $ credit_arg
      $ debit_arg $ csv_arg $ fairness_arg $ algo_arg $ info_arg $ scenario_arg
      $ spec_arg $ seeds_arg $ jobs_arg $ list_arg $ retries_arg
      $ max_slots_arg $ invariants_arg $ fast_path_arg $ metrics_out_arg
      $ trace_out_arg
      $ trace_csv_arg $ trace_stride_arg $ profile_arg $ flight_recorder_arg
      $ cells_arg $ mobility_arg $ epoch_arg $ faults_arg $ resume_arg
      $ fault_timeline_arg $ causality_arg $ windows_arg $ window_slots_arg
      $ check_trace_arg $ check_metrics_arg)

let () = exit (Cmd.eval cmd)
