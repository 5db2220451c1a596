(** Slotted wireless-cell simulator (the evaluation harness of Section 8).

    Per slot, in order: (1) packet arrivals join their flow queues, (2) every
    flow's channel advances one slot, (3) predictors produce per-flow
    channel estimates, (4) delay-bound drop policies discard expired
    packets, (5) the scheduler picks at most one flow to transmit, (6) the
    transmission succeeds iff the flow's {e true} channel state is good —
    on failure the packet stays at the head and its attempt count may
    trigger a retransmission-limit drop, (7) end-of-slot hooks run.

    All randomness lives in the sources and channels; given the same
    scheduler and the same seeded components, runs are reproducible. *)

type flow_setup = {
  flow : Params.flow;
  source : Wfs_traffic.Arrival.t;
  channel : Wfs_channel.Channel.t;
}

(** {1 Observability hooks}

    Phase ids passed to {!profiler_hooks}: one per numbered section of the
    slot loop above.  Contiguous in [0, n_phases); a profiler can index a
    preallocated accumulator array with them. *)

val phase_arrivals : int
val phase_predict : int
val phase_drops : int
val phase_select : int
val phase_transmit : int
val phase_slot_end : int
val n_phases : int

val phase_name : int -> string
(** Human-readable label for a phase id.
    @raise Invalid_argument on an id outside [0, n_phases). *)

type profiler_hooks = {
  phase_begin : int -> unit;
  phase_end : int -> unit;
}
(** Called at the start/end of every phase of every slot with the phase id.
    Hooks must not raise and must not touch the scheduler; they are meant
    to read a monotonic clock and accumulate (see [Wfs_obs.Profiler]). *)

type hook =
  slot:int ->
  selected:int option ->
  states:Wfs_channel.Channel.state array ->
  metrics:Metrics.t ->
  predicted_good:(int -> bool) ->
  unit
(** An end-of-slot hook, called once per slot after transmission and
    [on_slot_end], in the order the hooks were added:
    - [selected] is the flow the scheduler picked ([None] on an idle
      slot);
    - [states] is the true per-flow channel-state scratch array for this
      slot — {b borrowed}, valid only during the call; copy what you keep;
    - [metrics] is the live accumulator;
    - [predicted_good] answers what [select] was told this slot, through
      the non-mutating {!Wfs_channel.Predictor.peek}, so a hook that asks
      perturbs no predictor ([Periodic_snoop] included).

    Per-flow scheduler internals (tags, credits, virtual time, lag) come
    from the scheduler's own {!Wireless_sched.probe}, which a hook
    captures when it is built.  A hook holds its own per-run state, so
    each run builds fresh ones.  The invariant monitor
    ({!Invariant.hook}), the telemetry probe ([Wfs_obs.Probe]), the
    fairness monitor ({!Fairness.Monitor.hook}) and the windowed
    collector ([Wfs_xray.Windowed.hook]) are hooks.  A hook that raises
    stops the run at that slot. *)

type config = {
  flows : flow_setup array;
  predictor : Wfs_channel.Predictor.kind;
  horizon : int;  (** number of slots to simulate *)
  trace : Tracelog.t option;
  hooks : hook list;
      (** end-of-slot hooks, called in list order; [[]] costs one branch
          per slot *)
  profiler : profiler_hooks option;
      (** per-phase timing hooks; [None] costs one branch per phase *)
  histograms : bool;
      (** keep per-flow delay histograms so [Metrics.delay_percentile]
          works on the result *)
  fast_path : bool;
      (** opt in to the event-compressed engine: quiescent windows — no
          packet queued anywhere and no arrival scheduled before the
          window's end — are absorbed in closed form through the
          scheduler's {!Wireless_sched.quiescent} hook instead of being
          stepped slot by slot.  Byte-identical to the reference loop by
          construction (metrics, selections, RNG sample paths; enforced by
          the differential lockstep suite).  Requires per-object RNG
          streams (one [Rng.split] per source/channel, the repo-wide
          convention) — a single stream shared across objects would be
          re-interleaved.  Degenerates silently to the reference loop
          whenever a hook, an enabled trace or a profiler is attached, or
          the scheduler publishes no quiescent hook.  Off by default. *)
  skip_stats : Skip_stats.t option;
      (** fast-path skip telemetry collector.  Deliberately NOT part of the
          fast-path degeneration condition above: the collector is updated
          at window granularity only (one call per absorbed or declined
          quiescent window, plus per-[advance] aggregates), so attaching it
          keeps the engine on the compressed path and leaves the simulated
          sample path untouched.  When the run executes on the reference
          loop (fast path off or degenerated) the collector records those
          slots as [reference_slots], making the degeneration visible. *)
}
(** Build values of this record with {!Sim_config}, which validates the
    flows and horizon. *)

(** Epoch-resumable simulation: a session owns all per-run scratch (the
    metrics accumulator, packet sequence counters, predictors, channel
    scratch) and advances the slot loop in
    increments.  [Session.finish (Session.create cfg sched)] is exactly
    {!run}; a multi-cell {!Wfs_topo.Topology} instead advances each
    cell's session one epoch at a time and applies handoffs at the
    barrier.  A session started at [first_slot = 0] and advanced in any
    sequence of increments produces byte-identical metrics to a single
    {!run} — the loop body is shared and the scratch persists across
    [advance] calls. *)
module Session : sig
  type t

  val create :
    ?metrics:Metrics.t -> ?first_slot:int -> config -> Wireless_sched.instance -> t
  (** [metrics] lets the caller supply (and keep) the accumulator —
      [Wfs_topo] banks a retired session's metrics and threads fresh ones
      in; default is a fresh accumulator per session.  [first_slot]
      (default 0) is where the slot loop resumes: sources and channels
      are queried with absolute slot numbers, so a session rebuilt at an
      epoch barrier continues the same sample paths.
      @raise Invalid_argument when [first_slot] is outside
      [[0, horizon]] or [metrics] has the wrong flow count. *)

  val advance : t -> until:int -> unit
  (** Run slots [[next_slot t, until)].
      @raise Invalid_argument when [until] is behind [next_slot] or past
      the horizon. *)

  val next_slot : t -> int
  (** The first slot the next {!advance} will simulate. *)

  val metrics : t -> Metrics.t
  (** The live accumulator (the one passed to {!create}, if any). *)

  val finish : t -> Metrics.t
  (** {!advance} to the horizon and return {!metrics}. *)
end

val run : config -> Wireless_sched.instance -> Metrics.t
(** Simulate [horizon] slots and return the collected metrics.
    Equivalent to a single-increment {!Session}. *)
