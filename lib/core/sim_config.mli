(** Typed builder for simulator configurations — the only constructor of
    {!Simulator.config}.

    A run starts from {!v} and adds one typed step per knob:

    {[
      Sim_config.v ~horizon:200_000 flows
      |> Sim_config.with_predictor Predictor.One_step
      |> Sim_config.with_hook (Invariant.hook sched)
      |> Sim_config.with_hook probe
      |> Sim_config.run sched
    ]}

    A value of type {!t} {e is} a validated [Simulator.config] (see
    {!to_config}), so single-cell entry points ({!Exec.run}, the CLIs) and
    per-cell sessions ({!Wfs_topo.Cell}) build through the same steps. *)

type t

val v : horizon:int -> Simulator.flow_setup array -> t
(** Base configuration: the given flows, [One_step] prediction, no hooks,
    no trace, no profiler, no histograms, reference loop.
    @raise Invalid_argument on a negative horizon, flow ids out of order,
    or an empty flow array. *)

val with_predictor : Wfs_channel.Predictor.kind -> t -> t
(** Channel knowledge the scheduler runs with ([Perfect] / [One_step] /
    [Blind] / ...). *)

val with_trace : Tracelog.t -> t -> t

val with_hook : Simulator.hook -> t -> t
(** Append an end-of-slot hook; hooks run in the order added.  A hook
    keeps per-run state, so build a fresh one for every run.  Any hook
    turns the fast path off (see {!Simulator.config}'s [fast_path]). *)

val with_profiler : Simulator.profiler_hooks -> t -> t
val with_histograms : t -> t

val with_fast_path : bool -> t -> t
(** Opt in to (or out of) the event-compressed engine — see
    {!Simulator.config}'s [fast_path] field for the contract and the
    degeneration rules.  Takes the value rather than being a set-only
    step so sweeps can toggle both engines from one code path. *)

val with_skip_stats : Skip_stats.t -> t -> t
(** Attach a fast-path skip-telemetry collector (see
    {!Simulator.config}'s [skip_stats] field).  Unlike a hook, a trace
    or a profiler this does NOT degenerate the fast path: updates happen
    at quiescent-window granularity, not per slot. *)

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
