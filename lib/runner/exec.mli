(** The one single-cell run path: spec → registry lookup → seeded setups
    → {!Wfs_core.Sim_config} → metrics, with typed error classification.

    {!run} turns one {!Spec.t} into metrics by resolving the scheduler
    through {!Wfs_core.Registry}, building the scenario's seeded flow
    setups, and driving {!Wfs_core.Simulator}; {!run_outcome} adds the
    slot budget, the flight recorder and crash isolation.  A driver that
    runs a spec only says which observers to attach (a hook builder, a
    profiler, skip stats); the assembly happens here.  Every run is self-contained — all
    RNG streams are split from the spec's own seed — so
    [Pool.map ~jobs run specs] is byte-identical for any [jobs] count and
    any execution order. *)

val setups_of : Spec.t -> Wfs_core.Simulator.flow_setup array
(** The spec's seeded flow setups (source/channel streams split from the
    spec seed), freshly built — sources and channels are stateful, so each
    run needs its own.  Exposed for callers that need the flows before a
    run (a trace header's flow count) and for the topology driver, which
    builds one cell per seed.
    @raise Wfs_util.Error.Error (kind [Bad_spec]) / [Sys_error] on a bad
    file *)

val run :
  ?credit_limit:int ->
  ?debit_limit:int ->
  ?limits:(int * int) array ->
  ?hooks:
    (Wfs_core.Params.flow array ->
    Wfs_core.Wireless_sched.instance ->
    Wfs_core.Simulator.hook list) ->
  ?trace:Wfs_core.Tracelog.t ->
  ?profiler:Wfs_core.Simulator.profiler_hooks ->
  ?histograms:bool ->
  ?fast_path:bool ->
  ?skip_stats:Wfs_core.Skip_stats.t ->
  Spec.t ->
  Wfs_core.Metrics.t
(** Run one spec to completion in the calling domain.  The optional
    scheduler knobs are forwarded to the registry constructor; [trace],
    [profiler], [histograms], [fast_path] and [skip_stats] to the
    {!Wfs_core.Sim_config} step of the same name ([skip_stats] records
    fast-path skip telemetry without degenerating the compressed engine).
    [hooks] is a {e builder}: the scheduler instance only exists inside
    this call, so the caller passes a function from the run's flows and
    instance to a hook list (e.g. [fun flows sched ->
    [Wfs_core.Invariant.hook sched;
    Wfs_obs.Probe.create ~n_flows:(Array.length flows) sched]]; observers
    such as a fairness monitor read the flows' weights).  It is invoked
    once, after scheduler construction, and its hooks run in list order.
    For a [File] scenario the spec's seed/horizon override the file's
    directives.  The registry entry fixes the channel predictor: the
    name's "-I"/"-P" suffix states the channel knowledge.
    @raise Invalid_argument on an unknown scheduler name, or when the
    spec carries a topology clause — a multi-cell spec describes a
    [Wfs_topo.Topology] run, not a single-scheduler one; route it
    through [Wfs_topo.Topology.of_spec]
    @raise Wfs_util.Error.Error (kind [Bad_spec]) / [Sys_error] on a bad
    file
    @raise Wfs_util.Error.Error (kind [Invariant_violation]) when an
    {!Wfs_core.Invariant.hook} fires *)

val run_outcome :
  ?credit_limit:int ->
  ?debit_limit:int ->
  ?limits:(int * int) array ->
  ?hooks:
    (Wfs_core.Params.flow array ->
    Wfs_core.Wireless_sched.instance ->
    Wfs_core.Simulator.hook list) ->
  ?trace:Wfs_core.Tracelog.t ->
  ?profiler:Wfs_core.Simulator.profiler_hooks ->
  ?flight_recorder:int ->
  ?histograms:bool ->
  ?fast_path:bool ->
  ?skip_stats:Wfs_core.Skip_stats.t ->
  ?max_slots:int ->
  Spec.t ->
  (Wfs_core.Metrics.t, Wfs_util.Error.t) result
(** Crash-isolated {!run}: never raises, every failure is a typed error
    carrying the spec string in its context.  Classification: scenario
    parse failures and unreadable files are [Bad_spec]; out-of-range
    parameters and unknown schedulers ([Invalid_argument]) are
    [Bad_config]; monitor hits are [Invariant_violation]; anything else —
    including the [max_slots] budget refusal — is [Sim_fault].

    [max_slots] is the deterministic watchdog: a spec whose [horizon]
    exceeds it is refused {e before} running.  The slot loop is strictly
    horizon-bounded, so the budget is knowable up front — no wall-clock
    timers, identical verdicts on any machine.

    [flight_recorder n] runs the spec with a capacity-[n] ring trace
    ({!Wfs_core.Tracelog.create}[ ~capacity]).  On {e any} failure the
    error context gains [flight-recorder-events] (count retained) and
    [flight-recorder] (the last [n] events, rendered ["s<slot> <event>"]
    and ["|"]-separated) — so a [Sim_fault]/[Invariant_violation] row in
    the failure table shows what the scheduler did right before dying.
    Mutually exclusive with [trace] ([Bad_config] if both are given;
    [Bad_config] too when [n < 1]). *)

val flight_context : Wfs_core.Tracelog.t -> (string * string) list
(** The context fields a flight recorder contributes to an error:
    [flight-recorder-events] (entries retained) and [flight-recorder] (the
    entries rendered ["s<slot> <event>"], ["|"]-separated).  Exposed for
    runs that are not single-cell specs and manage their own recorder
    (the MAC driver, [bin/wfs_mac]). *)
