(** Per-slot telemetry probe: an end-of-slot {!Wfs_core.Simulator.hook}
    built from a scheduler instance.

    The probe is constructed {e after} the scheduler, captures the
    scheduler's read-only {!Wfs_core.Wireless_sched.probe} accessors
    (virtual time, finish tags, credit balances, global lag sum — exactly
    the quantities the invariant monitor reads, so sampling them cannot
    perturb the run), and on every [stride]-th slot emits one
    {!Trace.sample} to each sink and updates the standard instrument set.

    The cost model: with no hook attached the simulator pays one branch
    per slot; with a probe, non-sampled slots pay one extra [mod] and
    sampled slots pay the sample construction (O(flows)).  The probe never
    mutates scheduler state, so a probed run's delivered/dropped counts are
    identical to an unprobed run (lockstep-verified in [test/test_obs.ml]). *)

(** {b Standard instruments}, registered in this order when a registry is
    supplied to {!create}: [probe.samples] (counter), [probe.idle-slots]
    (counter), [probe.backlog] (histogram of total queued packets per
    sample), [probe.max-flow-queue] (max gauge), [probe.virtual-time]
    (last gauge), [probe.max-lag-sum] (max gauge).  Registration is
    unconditional so positional merge across replications always lines
    up; quantities the scheduler does not expose leave their gauge unset
    (rendered [-]). *)

val create :
  ?stride:int ->
  ?sinks:Sink.t list ->
  ?instruments:Instruments.t ->
  n_flows:int ->
  Wfs_core.Wireless_sched.instance ->
  Wfs_core.Simulator.hook
(** [create ~n_flows sched] samples every slot by default; [stride]
    samples slots [0, stride, 2·stride, ...].  [n_flows] must match the
    length of the simulator's channel-state array (for {!Wfs_mac.Mac_sim}
    that is the data-flow count, and [selected] may be the control-flow
    index).
    @raise Wfs_util.Error.Error (kind [Bad_config]) when [stride < 1] or
    [n_flows < 1]. *)

val sampler :
  stride:int ->
  n_flows:int ->
  Wfs_core.Wireless_sched.instance ->
  (Trace.sample -> unit) ->
  Wfs_core.Simulator.hook
(** The sample builder {!create} and [Wfs_xray.Mux.probe] share: a hook
    that, on every [stride]-th slot, builds one {!Trace.sample} of the
    first [n_flows] flows (queue, true channel state, finish tag, credit
    balance, then virtual time and lag sum) and hands it to the emitter.
    It validates nothing: [stride] and [n_flows] must be [>= 1]. *)
