(** Per-flow performance accounting.

    Collects exactly the measures reported in the paper's tables: average
    delay of successfully transmitted packets [d̄_i], loss probability
    [l_i], maximum delay [d^max_i] and delay standard deviation [σ_i] —
    plus throughput and channel/occupancy counters used by the extra
    benches. *)

type t

val create : ?histograms:bool -> n_flows:int -> unit -> t
(** With [histograms] (default off, saving memory on long runs) per-flow
    delay histograms are kept and {!delay_percentile} becomes available. *)

val add_flows : ?histograms:bool -> t -> count:int -> unit
(** Append [count] flows that have recorded nothing, numbered from
    [n_flows t] on, with histograms when [histograms] (default off).  The
    existing flows keep their accumulators as they are.
    @raise Invalid_argument on a negative count. *)

val on_arrivals : t -> flow:int -> count:int -> unit
(** [count] packets arrived for [flow], admitted or not. *)

val on_deliver : t -> flow:int -> delay:int -> unit
val on_drop : t -> flow:int -> unit

val on_drops : t -> flow:int -> count:int -> unit
(** [count] drops at once; equals [count] calls to {!on_drop}. *)

val on_idle_slot : t -> unit

val on_idle_slots : t -> count:int -> unit
(** [count] idle slots at once — what the event-compressed fast path
    records for a skipped quiescent window; equals [count] calls to
    {!on_idle_slot}.
    @raise Invalid_argument on a negative count. *)

val on_busy_slot : t -> unit
val on_failed_attempt : t -> flow:int -> unit

val n_flows : t -> int
val arrivals : t -> flow:int -> int
val delivered : t -> flow:int -> int
val dropped : t -> flow:int -> int
val failed_attempts : t -> flow:int -> int

val mean_delay : t -> flow:int -> float
(** Over delivered packets; 0 when none. *)

val max_delay : t -> flow:int -> float
(** 0 when none delivered. *)

val stddev_delay : t -> flow:int -> float

val delay_percentile : t -> flow:int -> p:float -> float
(** [p] in [0,100].  Two empty-data conventions, deliberately distinct:

    - {b no samples}: the histogram exists but no packet was delivered —
      a statistical question with no answer, so the result is [nan]
      (matching {!Wfs_util.Stats.Summary.min} on an empty summary);
    - {b no histogram}: the metrics were created without
      [~histograms:true] — a configuration mistake, so this raises
      [Wfs_util.Error.Error] with kind [Bad_config] (rendered as such in
      runner failure tables).

    @raise Wfs_util.Error.Error (kind [Bad_config]) unless the metrics
    were created with [~histograms:true]. *)

val loss : t -> flow:int -> float
(** dropped / arrivals; 0 when no arrivals. *)

val drop_share : t -> flow:int -> float
(** dropped / (delivered + dropped): the fraction of packets that entered
    service (or expired) and were lost.  For saturated sources — whose
    arrivals exceed any possible service — this is the loss measure the
    paper reports (Example 4's sources 2 and 4). *)

val throughput : t -> flow:int -> slots:int -> float
(** delivered packets per slot over a horizon of [slots]. *)

val idle_slots : t -> int
val busy_slots : t -> int

val backlog_remaining : t -> flow:int -> int
(** arrivals − delivered − dropped: packets still queued at the end of the
    run (neither counted as delivered nor lost). *)

val absorb : t -> src:t -> map:(int -> int) -> unit
(** [absorb t ~src ~map] folds every per-flow accumulator of [src] into
    [t] — flow [i] of [src] lands on flow [map i] of [t] — and adds the
    idle/busy slot counters; [src] is not modified.  This is how
    {!Wfs_topo} banks a retired cell session's metrics into a
    topology-wide accumulator indexed by global flow id: local ids are
    remapped through [map], and absorbing into an untouched target flow
    copies the source accumulator exactly (so zero-mobility multi-cell
    runs render byte-identically to independent single-cell runs).
    Source flows that recorded nothing are skipped, which leaves their
    targets exactly as a merge would.
    [map] must be injective into [[0, n_flows t)]. *)

val to_json : t -> Wfs_util.Json.t
val of_json : Wfs_util.Json.t -> t option
(** Bit-exact round-trip used by the sweep checkpoint journal: a table
    rendered from [of_json (to_json m)] is byte-identical to one rendered
    from [m]. *)
