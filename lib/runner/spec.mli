(** Typed run specs: the (scenario, scheduler, seed, horizon) tuple.

    A spec names one simulation run completely: which workload (a paper
    example or a scenario file), which scheduler (a {!Wfs_core.Registry}
    name), the PRNG seed every stream in the run is split from, and the
    horizon in slots.  Specs are pure data — {!Exec} turns one into a
    {!Wfs_core.Metrics.t} — and serialize to a stable string form that
    round-trips through {!of_string}, so a spec is also a reproducible
    experiment id (the bench uses it as the dedup/merge key, the CLI
    accepts it via [--spec]).

    String form (fields separated by [|], whitespace around fields is
    ignored).  The optional 5th field is the multi-cell topology clause —
    a spec without it means the classic single-cell run, so every
    pre-topology spec string keeps parsing unchanged:

    {v
    example:1?sum=0.5 | SwapA-P | seed=42 | horizon=200000
    file:examples/cell.scenario | WPS | seed=7 | horizon=50000
    example:1 | WPS | seed=42 | horizon=20000 | cells=4,mobility=0.01,epoch=500
    example:1 | WPS | seed=42 | horizon=20000 | cells=4,mobility=0.01,epoch=500,faults=crash:0.01;recover:0.5;lose:0.05;corrupt:0.05;blackout:0.02x250;exn:0.01;persist:0.25;budget:1
    v} *)

type scenario =
  | Example of { n : int; sum : float option }
      (** paper Example [n] (1–6); [sum] is the pg+pe burstiness knob of
          Examples 1–2 *)
  | File of string  (** a scenario file, {!Wfs_core.Scenario} format *)

type faults = {
  crash : float;  (** per-cell crash probability at each epoch barrier *)
  recover : float;
      (** per-crashed-cell recovery probability at each later barrier *)
  lose : float;  (** per-handoff probability the parcel is lost in transit *)
  corrupt : float;
      (** per-handoff probability the carried state arrives corrupted *)
  blackout : float;
      (** per-cell probability a channel blackout burst starts at a barrier *)
  blackout_len : int;  (** blackout burst duration in slots *)
  exn : float;
      (** per-cell probability a worker-domain exception is injected into
          the next epoch's advance *)
  persist : float;
      (** fraction of injected exceptions that are persistent (survive
          retries) rather than transient (one-shot) *)
  budget : int;
      (** worker-fault watchdog: how many cells may fail in one epoch
          before the whole run is refused as a [Sim_fault] *)
}
(** A deterministic fault plan for a {!Wfs_topo} run — all draws happen at
    epoch barriers from the plan's own RNG stream (see
    [docs/ROBUSTNESS.md]).  String form, ;-separated, all keys required in
    this order:
    [crash:R;recover:R;lose:R;corrupt:R;blackout:RxN;exn:R;persist:R;budget:N] *)

type topo = {
  cells : int;  (** number of cells; the scenario is instantiated per cell *)
  mobility : float;
      (** per-flow probability of handing off at each epoch barrier *)
  epoch : int;  (** slots per lockstep epoch (the handoff granularity) *)
  faults : faults option;  (** [None] or an inert plan = no chaos hooks *)
}

type t = {
  scenario : scenario;
  sched : string;  (** scheduler registry name, e.g. ["SwapA-P"] *)
  seed : int;
  horizon : int;
  topo : topo option;
      (** [None] = the classic single-cell run; [Some _] = a
          {!Wfs_topo.Topology} run *)
}

val default_seed : int
(** 42 — the bench default. *)

val default_horizon : int
(** 200000 slots — the paper's evaluation horizon. *)

(** {1 Builder} *)

val example : ?sum:float -> int -> scenario
(** @raise Invalid_argument when [n] is outside 1–6 or [sum] is given for
    an example other than 1–2. *)

val file : string -> scenario

val topo : cells:int -> mobility:float -> epoch:int -> topo
(** A topology clause without a fault plan ([faults = None]); add one with
    {!with_faults}.
    @raise Invalid_argument on [cells < 1], [epoch < 1], or a mobility
    outside [[0, 1]]. *)

val faults :
  ?crash:float ->
  ?recover:float ->
  ?lose:float ->
  ?corrupt:float ->
  ?blackout:float ->
  ?blackout_len:int ->
  ?exn:float ->
  ?persist:float ->
  ?budget:int ->
  unit ->
  faults
(** A fault plan; every rate defaults to 0, [blackout_len] to 1, [budget]
    to 0 (any persistent worker fault fails its run).
    @raise Invalid_argument on a rate outside [[0, 1]],
    [blackout_len < 1] or [budget < 0]. *)

val faults_active : faults -> bool
(** [true] when at least one injection rate ([crash], [lose], [corrupt],
    [blackout], [exn]) is positive.  An inert plan engages no chaos hook:
    the run is byte-identical to the same spec without the plan. *)

val with_faults : faults -> topo -> topo

val make : ?seed:int -> ?horizon:int -> ?topo:topo -> sched:string -> scenario -> t
(** Defaults: {!default_seed}, {!default_horizon}, no topology.
    @raise Invalid_argument on a non-positive horizon. *)

val with_seed : int -> t -> t

val replicas : int -> t -> t list
(** [replicas n t] is the replication rule every driver shares: [n]
    copies of [t] with the consecutive seeds [t.seed], [t.seed + 1], ...,
    [t.seed + n - 1], in that order.
    @raise Invalid_argument when [n < 1]. *)

val with_horizon : int -> t -> t
val with_sched : string -> t -> t
val with_topo : topo -> t -> t

val of_scenario_file :
  ?sched:string -> ?seed:int -> ?horizon:int -> string -> t
(** [of_scenario_file path] parses the scenario file and lifts it into a
    spec, taking seed and horizon from the file's directives (their
    defaults when absent); an explicit [seed] or [horizon] overrides the
    directive.  [sched] defaults to ["WPS"].
    @raise Invalid_argument if [horizon <= 0].
    @raise Wfs_util.Error.Error (kind [Bad_spec]) on a malformed file, or
    [Sys_error]. *)

(** {1 Serialization} *)

val faults_to_string : faults -> string

val faults_of_string : string -> (faults, string) result
(** Inverse of {!faults_to_string}; also the [--faults] CLI grammar. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: [of_string (to_string t)] always yields
    [Ok t'] with [equal t t'].  Purely syntactic — the scheduler name is
    validated by {!Exec}, not here. *)

val of_string_exn : string -> t
(** @raise Invalid_argument with the parse message. *)

val parse : string -> (t, Wfs_util.Error.t) result
(** {!of_string} with a typed error: parse failures become kind
    [Bad_spec] with the offending spec string in the context.  Never
    raises. *)

val equal : t -> t -> bool
val topo_equal : topo -> topo -> bool
val faults_equal : faults -> faults -> bool
