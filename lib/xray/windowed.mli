(** The [wfs-windows/1] tumbling-window aggregation stream — the
    measurement bus the future [wfs_ric] controller subscribes to.

    A collector watches the run's CUMULATIVE {!Wfs_core.Metrics}
    accumulator and closes a window each time the observation position
    crosses a tumbling boundary, recording the window's Jain fairness
    index, the paper's eq-(1) normalized-service gap (over flows that had
    traffic in the window), and the window's arrival / delivery / drop /
    backlog / loss deltas.  Single-cell runs feed it every slot through
    {!hook}; a topology feeds it at epoch barriers via
    [Wfs_topo.Topology.peek_metrics] — when sampling is sparser than the
    window length, [start_slot] / [end_slot] record the span actually
    covered, so the stream never claims resolution the sampling lacked. *)

val schema : string
(** ["wfs-windows/1"] *)

type window = {
  index : int;
  start_slot : int;  (** inclusive *)
  end_slot : int;  (** exclusive *)
  jain : float;  (** Jain index of per-flow weight-normalized service *)
  gap : float;  (** eq-(1) max normalized-service gap, 0 under 2 active flows *)
  arrivals : int;
  delivered : int;
  dropped : int;
  backlog : int;  (** total queued packets at window end (not a delta) *)
  loss : float;  (** window drops / window arrivals; 0 when no arrivals *)
}

val window_to_json : window -> Wfs_util.Json.t
val window_of_json : Wfs_util.Json.t -> window option
val window_to_string : window -> string

val window_of_string : string -> window option
(** Bit-exact round-trip of {!window_to_string} (qcheck-verified). *)

val window_equal : window -> window -> bool
(** Floats compare by total order. *)

(** {1 In-run collector} *)

type t

val create : weights:float array -> window:int -> t
(** [weights] are the flows' rate weights (gid-indexed; normalization
    denominators for Jain and the gap).
    @raise Wfs_util.Error.Error (kind [Bad_config]) when [window < 1],
    the weight array is empty, or any weight is not positive. *)

val observe : t -> slot:int -> metrics:Wfs_core.Metrics.t -> unit
(** Feed the cumulative accumulator at the end of [slot].  Slots must be
    nondecreasing across calls; gaps are fine (barrier sampling). *)

val flush : t -> slot:int -> metrics:Wfs_core.Metrics.t -> unit
(** Close the trailing partial window at end of run (no-op when nothing
    accumulated since the last boundary). *)

val windows : t -> window list

val hook : t -> Wfs_core.Simulator.hook
(** {!observe} as an end-of-slot {!Wfs_core.Simulator.hook}.  NOTE:
    attaching a hook degenerates the fast path — windowed aggregation
    per slot is a reference-loop instrument; topology runs sample at
    barriers instead and stay compressed. *)

(** {1 File round-trip} *)

type contents = { window : int; windows : window list }

val write : path:string -> window:int -> window list -> unit

val load : path:string -> (contents, Wfs_util.Error.t) result
(** A framed stream ({!Wfs_util.Jsonl}; docs/ROBUSTNESS.md, "Framed
    streams") whose header carries the window length. *)
