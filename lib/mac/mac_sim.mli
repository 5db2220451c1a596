(** Integrated MAC + scheduler simulation of a packet cell (Section 6).

    Extends the plain scheduler evaluation with the information constraints
    the MAC imposes:

    - {b uplink invisibility}: the base station cannot see uplink arrivals;
      packets become schedulable only when revealed by a piggybacked queue
      report (on any successful transmission from the same host) or by a
      won notification contention in a control slot;
    - {b control flow}: the distinguished flow <0, downlink, 0> competes for
      slots like a unit-weight, always-backlogged, error-free flow; when it
      wins, the slot becomes a control slot carrying the notification
      mini-slots;
    - {b acknowledgements}: every data slot's outcome is known immediately
      (the ack sub-slot), driving retransmissions and one-step prediction.

    Scheduling itself is the full WPS algorithm ({!Wfs_core.Wps}) over the
    known-backlogged set.  The three-slot advertisement pipeline is
    abstracted: WPS may swap across the whole frame, and the trace records
    every swap so its distance distribution can be compared with the
    advertised window. *)

type flow_spec = {
  addr : Frame.flow_addr;
  weight : float;
  source : Wfs_traffic.Arrival.t;
  channel : Wfs_channel.Channel.t;
  drop : Wfs_core.Params.drop_policy;
}

type contention_policy =
  | Single_shot  (** the paper's baseline: contenders transmit every time *)
  | Aloha of float
      (** p-persistent slotted ALOHA (the Section 6.2 improvement) *)

type config = {
  flows : flow_spec array;
  control_weight : float;
  wps : Wfs_core.Params.wps;
  contention : contention_policy;
  horizon : int;
  rng : Wfs_util.Rng.t;  (** drives notification contention *)
  trace : Wfs_core.Tracelog.t option;
  hooks : Wfs_core.Wireless_sched.instance -> Wfs_core.Simulator.hook list;
      (** end-of-slot hooks, as in {!Wfs_core.Simulator}, but passed as a
          {e builder} (the WPS instance is internal to {!run}, exactly like
          [Wfs_runner.Exec.run]'s [hooks]); a hook's [states] array covers
          the [n] data flows, [selected] may be [Some n] — the control-flow
          index — on a control slot, and [predicted_good] answers [true]
          for the control flow *)
  profiler : Wfs_core.Simulator.profiler_hooks option;
      (** per-phase timing hooks, sharing {!Wfs_core.Simulator}'s phase ids
          (the contention resolution of a control slot is counted under the
          transmit phase) *)
}

val config :
  ?control_weight:float ->
  ?wps:Wfs_core.Params.wps ->
  ?contention:contention_policy ->
  ?trace:Wfs_core.Tracelog.t ->
  ?hooks:
    (Wfs_core.Wireless_sched.instance -> Wfs_core.Simulator.hook list) ->
  ?profiler:Wfs_core.Simulator.profiler_hooks ->
  rng:Wfs_util.Rng.t ->
  horizon:int ->
  flow_spec array ->
  config
(** Defaults: control weight 1, full WPS ({!Wfs_core.Params.swapa}),
    single-shot contention, no hooks.
    @raise Invalid_argument if two flows share an address, an address is the
    control address, or the horizon is negative. *)

type result = {
  metrics : Wfs_core.Metrics.t;  (** per data flow, indexed as in [flows] *)
  control_slots : int;
  data_slots : int;
  idle_slots : int;
  notifications_won : int;
  notification_collisions : int;
  piggyback_reveals : int;
      (** packets revealed by piggybacked queue reports *)
  mean_reveal_delay : float;
      (** mean slots an uplink packet stayed invisible to the scheduler *)
}

val run : config -> result

val result_to_json : result -> Wfs_util.Json.t
val result_of_json : Wfs_util.Json.t -> result option
(** Bit-exact round-trip for the sweep checkpoint journal. *)
