(* Benchmark harness entry point.

   Regenerate every paper table (1-11), the ablations, the MAC
   integration figures and the Section-5 bound checks on a pool of worker
   domains, and write the machine-readable BENCH_<timestamp>.json
   artifact.  Speed is measured by perfbench/ (release build, see
   docs/PERF.md), not here.

   Arguments:
     --quick             shorter horizon (20k slots)
     --horizon N         explicit horizon in slots (default 200000)
     --seed N            base PRNG seed (default 42)
     --seeds K           replications per run, seeds N..N+K-1 (default 1);
                         K > 1 renders mean±95% CI cells
     --jobs N            worker domains (default: all cores; 1 = sequential)
     --json PATH         artifact path (default BENCH_<timestamp>.json)
     --no-json           skip the artifact
     --resume PATH       checkpoint journal: created if absent, and jobs
                         whose results it already holds are not re-run
     --retries N         extra attempts per failed job (same RNG stream)
     --max-slots N       refuse jobs whose declared slot count exceeds N
     --check-invariants  run the paper-property monitors in every job
     --flight-recorder N keep the last N trace events per job; a failed
                         job's error context reports them
     --profile           self-profiling dashboard after the tables: one
                         instrumented run (Example 2, SwapA-P, --horizon
                         slots) with per-phase timings, ns/slot, stage
                         spans and probe instruments

   Table output is byte-identical for every --jobs value: each run draws
   from RNG streams split from its own spec seed, and results merge by
   input position, not completion order.  Failed jobs never abort the
   sweep: their sections are skipped, a failure table is printed, and the
   exit status is 3. *)

let usage =
  "usage: main.exe [--quick] [--horizon N] [--seed N] [--seeds K] [--jobs N]\n\
  \                [--json PATH | --no-json] [--resume PATH] [--retries N]\n\
  \                [--max-slots N] [--check-invariants] [--flight-recorder N]\n\
  \                [--profile]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n%s\n" msg usage;
      exit 2)
    fmt

(* The --profile dashboard: one fully instrumented run (Example 2,
   SwapA-P — the paper's main workload with the richest scheduler state)
   showing where slot time goes, how the stages nest, and what the
   standard probe instruments saw.  The run is separate from the measured
   sweeps, so profiling never perturbs reported numbers. *)
let profile_dashboard ~horizon ~seed =
  let prof = Wfs_obs.Profiler.create () in
  let reg = Wfs_obs.Instruments.create () in
  let spec =
    Wfs_runner.Spec.make ~seed ~horizon ~sched:"SwapA-P"
      (Wfs_runner.Spec.example 2)
  in
  Wfs_obs.Profiler.span prof "dashboard" (fun () ->
      let _metrics =
        Wfs_obs.Profiler.span prof "run:SwapA-P" (fun () ->
            Wfs_runner.Exec.run
              ~hooks:(fun flows sched ->
                [
                  Wfs_obs.Probe.create ~instruments:reg
                    ~n_flows:(Array.length flows) sched;
                ])
              ~profiler:(Wfs_obs.Profiler.hooks prof) spec)
      in
      Wfs_obs.Profiler.span prof "render" (fun () ->
          Wfs_util.Tablefmt.print
            (Wfs_obs.Profiler.phase_table ~slots:horizon prof);
          print_newline ();
          Wfs_util.Tablefmt.print
            (Wfs_obs.Instruments.to_table ~title:"probe instruments" reg)));
  print_newline ();
  Wfs_util.Tablefmt.print (Wfs_obs.Profiler.span_table prof)

let () =
  let quick = ref false in
  let horizon = ref None in
  let seed = ref 42 in
  let seeds = ref 1 in
  let jobs = ref None in
  let json_path = ref None in
  let write_json = ref true in
  let resume = ref None in
  let retries = ref 0 in
  let max_slots = ref None in
  let invariants = ref false in
  let flight_recorder = ref None in
  let profile = ref false in
  let int_arg flag value =
    match int_of_string_opt value with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" flag value
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | ("--horizon" as flag) :: value :: rest ->
        let n = int_arg flag value in
        if n <= 0 then die "%s must be positive, got %d" flag n;
        horizon := Some n;
        parse rest
    | ("--seed" as flag) :: value :: rest ->
        seed := int_arg flag value;
        parse rest
    | ("--seeds" as flag) :: value :: rest ->
        let n = int_arg flag value in
        if n < 1 then die "%s must be >= 1, got %d" flag n;
        seeds := n;
        parse rest
    | ("--jobs" as flag) :: value :: rest ->
        let n = int_arg flag value in
        if n < 1 then die "%s must be >= 1, got %d" flag n;
        jobs := Some n;
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--no-json" :: rest ->
        write_json := false;
        parse rest
    | "--resume" :: path :: rest ->
        resume := Some path;
        parse rest
    | ("--retries" as flag) :: value :: rest ->
        let n = int_arg flag value in
        if n < 0 then die "%s must be >= 0, got %d" flag n;
        retries := n;
        parse rest
    | ("--max-slots" as flag) :: value :: rest ->
        let n = int_arg flag value in
        if n <= 0 then die "%s must be positive, got %d" flag n;
        max_slots := Some n;
        parse rest
    | "--check-invariants" :: rest ->
        invariants := true;
        parse rest
    | ("--flight-recorder" as flag) :: value :: rest ->
        let n = int_arg flag value in
        if n < 1 then die "%s must be >= 1, got %d" flag n;
        flight_recorder := Some n;
        parse rest
    | "--profile" :: rest ->
        profile := true;
        parse rest
    | [ ("--horizon" | "--seed" | "--seeds" | "--jobs" | "--json" | "--resume"
        | "--retries" | "--max-slots" | "--flight-recorder") as flag ] ->
        die "%s expects a value" flag
    | arg :: _ -> die "unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let horizon =
    match !horizon with
    | Some n -> n
    | None -> if !quick then 20_000 else 200_000
  in
  let jobs =
    match !jobs with Some n -> n | None -> Wfs_runner.Pool.default_jobs ()
  in
  let opts = { Tables.horizon; seed = !seed; seeds = !seeds; jobs } in
  let run_opts =
    {
      Runs.jobs;
      retries = !retries;
      max_slots = !max_slots;
      invariants = !invariants;
      flight_recorder = !flight_recorder;
      resume = !resume;
      params =
        [
          ("horizon", Wfs_util.Json.Int horizon);
          ("seed", Wfs_util.Json.Int !seed);
          ("seeds", Wfs_util.Json.Int !seeds);
        ];
    }
  in
  Printf.printf
    "Wireless fair scheduling benchmarks (horizon=%d slots, seed=%d, seeds=%d, jobs=%d)\n"
    horizon !seed !seeds jobs;
  let t0 = Unix.gettimeofday () in
  let artifact_tables, stats, failures =
    match Tables.all ~run_opts ~opts () with
    | r -> r
    | exception Wfs_util.Error.Error e ->
        Printf.eprintf "error: %s\n" (Wfs_util.Error.to_string e);
        exit 2
  in
  let wall_clock_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\n%d runs, %d slots in %.2f s (%.0f slots/s, %d domain(s))\n"
    stats.Runs.runs stats.Runs.slots wall_clock_s
    (if wall_clock_s > 0. then float_of_int stats.Runs.slots /. wall_clock_s
     else 0.)
    jobs;
  if not (List.is_empty failures) then begin
    Printf.printf "\n=== Failed jobs (%d) ===\n" (List.length failures);
    List.iter
      (fun { Runs.key; error } ->
        Printf.printf "  %s\n    %s\n" key (Wfs_util.Error.to_string error))
      failures
  end;
  if !write_json then begin
    let artifact =
      Wfs_runner.Artifact.v ~horizon ~seed:!seed ~seeds:!seeds ~jobs
        ~runs:stats.Runs.runs ~slots:stats.Runs.slots ~wall_clock_s
        ~tables:artifact_tables
    in
    let path =
      match !json_path with
      | Some p -> p
      | None ->
          let tm = Unix.gmtime (Unix.gettimeofday ()) in
          Printf.sprintf "BENCH_%04d%02d%02dT%02d%02d%02dZ.json"
            (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    in
    Wfs_runner.Artifact.write ~path artifact;
    Printf.printf "wrote %s\n" path
  end;
  if !profile then begin
    Printf.printf
      "\n=== Profile dashboard (Example 2, SwapA-P, horizon=%d slots) ===\n\n"
      horizon;
    profile_dashboard ~horizon ~seed:!seed
  end;
  if not (List.is_empty failures) then exit 3
