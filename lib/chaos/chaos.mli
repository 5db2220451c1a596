(** Deterministic fault injection for multi-cell topology runs.

    A chaos engine turns a {!Wfs_runner.Spec.faults} plan into a concrete,
    reproducible fault schedule.  Every draw comes from the engine's own
    RNG stream (seeded from the master seed at a cell index above every
    real cell's, like the mobility stream) and happens only inside the
    sequential epoch barrier — never on a worker domain — so a faulted run
    is byte-identical across [--jobs] values, and an {e inert} plan (all
    rates zero) consumes zero draws and perturbs nothing.

    The engine owns the fault {e decisions} and their telemetry; the
    topology layer owns their {e consequences} (orphaning a crashed cell's
    flows, zeroing a corrupted carry, re-homing at the next barrier).
    Worker domains touch exactly two read paths — {!inject} (their own
    cell's armed-fault atomic) and {!blacked_out} (arrays written only
    between epochs) — everything else is barrier-side.

    Fault taxonomy and the determinism argument: [docs/ROBUSTNESS.md]. *)

(** One scheduled fault occurrence. *)
type fault =
  | Cell_crash of { cell : int }
      (** the cell dies at a barrier: its flows are orphaned, their
          banked service dissolved under the §5/§7 carry ledger *)
  | Cell_recover of { cell : int }  (** a crashed cell comes back empty *)
  | Handoff_lost of { flow : int; src : int; dst : int }
      (** the handoff parcel vanishes in transit: the flow arrives with
          {!Wfs_core.Wireless_sched.carry_zero} and an empty backlog *)
  | Handoff_corrupt of { flow : int; src : int; dst : int }
      (** the carried state is mangled in transit; the receiver detects
          the digest mismatch and falls back to a zero carry *)
  | Handoff_blocked of { flow : int; src : int; dst : int }
      (** the drawn destination cell is down; the move is cancelled *)
  | Blackout of { cell : int; until : int }
      (** every channel in the cell is forced Bad until slot [until] *)
  | Worker_fault of { cell : int; persistent : bool }
      (** an injected worker-domain exception fired during the cell's
          epoch advance *)

type event = { slot : int; fault : fault }

type t
(** A chaos engine for one topology run: the plan, its private RNG
    stream, per-cell liveness / blackout / armed-fault state, its own
    {!Wfs_obs.Instruments} registry, and the fault timeline. *)

val create : seed:int -> cells:int -> Wfs_runner.Spec.faults -> t
(** [create ~seed ~cells plan] — [seed] is the chaos stream's own seed
    (the topology derives it with
    [Topology.cell_seed ~seed ~cell:(cells + 1)]; the mobility stream
    sits at [cells]).
    @raise Invalid_argument when [cells < 1]. *)

val plan : t -> Wfs_runner.Spec.faults

(** {1 Barrier draws}

    All of these run on the coordinating domain between epochs, in a
    fixed order (recoveries, crashes, blackouts, armed faults, then the
    per-handoff verdicts and re-home draws as the topology replays
    moves).  Iteration is always in ascending cell / flow order, so the
    stream consumption — and hence every later draw — is deterministic. *)

val draw_recoveries : t -> slot:int -> int list
(** Bernoulli([plan.recover]) per {e down} cell; recovered cells (marked
    up, counted, timelined) in ascending order. *)

val draw_crashes : t -> slot:int -> int list
(** Bernoulli([plan.crash]) per {e up} cell; crashed cells (marked down,
    counted, timelined) in ascending order. *)

val draw_blackouts : t -> slot:int -> unit
(** Bernoulli([plan.blackout]) per up cell; a hit forces the cell's
    channels Bad for the next [plan.blackout_len] slots. *)

val arm_worker_faults : t -> slot:int -> unit
(** Bernoulli([plan.exn]) per up cell; a hit arms an injected exception
    for the cell's next epoch advance, persistent (survives the pool's
    retry) with probability [plan.persist]. *)

(** Transit outcome for one executed handoff. *)
type verdict = Deliver | Blocked | Lost | Corrupt

val handoff_verdict : t -> slot:int -> flow:int -> src:int -> dst:int -> verdict
(** Decide one handoff's fate.  A down destination is [Blocked] without
    consuming any draw (liveness is already deterministic); otherwise a
    [plan.lose] draw, then — only when not lost — a [plan.corrupt] draw.
    Counts and timelines every non-[Deliver] verdict. *)

val rehome_target : t -> int option
(** Uniform draw over the currently-up cells for one orphaned flow;
    [None] (and no draw consumed) when every cell is down. *)

(** {1 State queries} *)

val is_down : t -> cell:int -> bool
val down_count : t -> int

val blacked_out : t -> cell:int -> slot:int -> bool
(** Safe from worker domains: the blackout table is written only at
    barriers. *)

(** {1 Worker-side injection} *)

val inject : t -> cell:int -> unit
(** Called by the cell's epoch-advance thunk {e before} it mutates any
    session state.  Raises the armed fault as a typed [Sim_fault]
    (who ["Wfs_chaos"], context [chaos-fault = transient|persistent]) —
    a transient fault is consumed by the raise, so the pool's retry of
    the same clean-state thunk succeeds; a persistent one stays armed
    and fails every retry. *)

val injected_fault : Wfs_util.Error.t -> bool
(** True for any error raised by {!inject} (transient or persistent) —
    the topology uses it to tell budget-accountable injected faults from
    real worker errors, which must still propagate. *)

val retryable : Wfs_util.Error.t -> bool
(** The [retry_if] classifier for {!Wfs_runner.Pool.map_outcomes}: true
    exactly for transient injected faults. *)

val note_worker_fault : t -> slot:int -> cell:int -> unit
(** Accept a persistent injected fault that survived its retries: mark
    the cell down (its flows will be orphaned), disarm it, count and
    timeline the fault.  The caller enforces [plan.budget]. *)

(** {1 Carried-state corruption} *)

val carry_digest : Wfs_core.Wireless_sched.carry -> int
(** Deterministic digest of a §5/§7 carry (bit-exact over [lag]). *)

val mangle_carry : Wfs_core.Wireless_sched.carry -> Wfs_core.Wireless_sched.carry
(** The corruption applied in transit; guaranteed to change the digest
    of any carry (including {!Wfs_core.Wireless_sched.carry_zero}). *)

(** {1 Telemetry} *)

val note_lost_carry : t -> lag:float -> credit:int -> packets:int -> unit
(** Record the magnitude of state destroyed by a lost or corrupted
    handoff ([Sum] gauges [chaos.lost_lag] / [chaos.lost_credit] /
    [chaos.lost_packets]).  Crash orphans are {e not} lost state — their
    parcels re-home intact under the carry ledger. *)

val note_rehomed : t -> unit

val note_gauges : t -> orphaned:int -> unit
(** End-of-barrier gauge sweep: peak cells down, peak orphaned flows. *)

val instruments : t -> Wfs_obs.Instruments.t
(** The engine's own registry — deliberately {e not} merged into the
    per-cell scheduler instruments (those merge positionally across
    worker registries; chaos telemetry is barrier-side and global). *)

val timeline : t -> event list
(** Chronological. *)

val fault_to_string : fault -> string

val fault_kind : fault -> string
(** The ["kind"] tag of {!fault_to_json}: ["crash"], ["recover"],
    ["lost"], ["corrupt"], ["blocked"], ["blackout"] or ["worker"]. *)

val fault_to_json : fault -> Wfs_util.Json.t
val fault_of_json : Wfs_util.Json.t -> fault option
val event_to_json : event -> Wfs_util.Json.t
val event_of_json : Wfs_util.Json.t -> event option
val event_equal : event -> event -> bool

val timeline_to_json : t -> Wfs_util.Json.t
(** [Arr] of {!event_to_json}, chronological; round-trips through
    {!event_of_json}. *)

(** {1 Timeline files}

    A run's fault timeline on disk is a framed stream
    ({!Wfs_util.Jsonl}; docs/ROBUSTNESS.md, "Framed streams") with no
    header fields and one [{"spec":...,"event":...}] record per fault. *)

val timeline_schema : string
(** ["wfs-chaos/1-timeline"] *)

val write_timeline : path:string -> (string * event list) list -> unit
(** One group per run: its spec string and its chronological events. *)

val timeline_entry_of_json : Wfs_util.Json.t -> (string * event) option

val timeline_context : t -> (string * string) list
(** The most recent faults rendered for {!Wfs_util.Error.add_context},
    so failure reports carry the fault history that led up to them. *)
