(** Typed builder for simulator configurations — the primary construction
    surface for {!Simulator.config}.

    {!Simulator.config}'s optional-argument constructor grew one knob per
    PR (trace, observer, probe, profiler, histograms, invariants, ...);
    this builder replaces that sprawl with a pipeline of typed steps:

    {[
      Sim_config.v ~horizon:200_000 flows
      |> Sim_config.with_predictor Predictor.One_step
      |> Sim_config.with_probe probe
      |> Sim_config.with_invariants
      |> Sim_config.run sched
    ]}

    A value of type {!t} {e is} a validated [Simulator.config] (see
    {!to_config}), so single-cell entry points ({!Exec.run}, the CLIs) and
    per-cell sessions ({!Wfs_topo.Cell}) build through the same steps and
    golden outputs stay byte-identical with the legacy constructor. *)

type t

val v : horizon:int -> Simulator.flow_setup array -> t
(** Base configuration: the given flows, [One_step] prediction, no
    telemetry, no histograms, no invariant monitor.
    @raise Invalid_argument on a negative horizon, flow ids out of order,
    or an empty flow array. *)

val with_predictor : Wfs_channel.Predictor.kind -> t -> t
(** Channel knowledge the scheduler runs with ([Perfect] / [One_step] /
    [Blind] / ...). *)

val with_trace : Tracelog.t -> t -> t
val with_observer : (int -> Metrics.t -> unit) -> t -> t
val with_probe : Simulator.slot_probe -> t -> t
val with_profiler : Simulator.profiler_hooks -> t -> t
val with_histograms : t -> t
val with_invariants : t -> t

val with_fast_path : bool -> t -> t
(** Opt in to (or out of) the event-compressed engine — see
    {!Simulator.config}'s [fast_path] field for the contract and the
    degeneration rules.  Takes the value rather than being a set-only
    step so sweeps can toggle both engines from one code path. *)

val with_skip_stats : Skip_stats.t -> t -> t
(** Attach a fast-path skip-telemetry collector (see
    {!Simulator.config}'s [skip_stats] field).  Unlike every other
    observability hook this does NOT degenerate the fast path: updates
    happen at quiescent-window granularity, not per slot. *)

val to_config : t -> Simulator.config
(** The underlying record — every builder value is already validated. *)

val run : Wireless_sched.instance -> t -> Metrics.t
(** [run sched t] = [Simulator.run (to_config t) sched]; pipeline-ordered
    so a builder chain ends [... |> run sched]. *)

val start :
  ?metrics:Metrics.t -> ?first_slot:int -> Wireless_sched.instance -> t ->
  Simulator.Session.t
(** Open an epoch-resumable {!Simulator.Session} on this configuration
    (same parameters as {!Simulator.Session.create}). *)
