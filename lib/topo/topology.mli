(** Multi-cell lockstep driver: many {!Cell}s sharing one horizon, with
    deterministic §5/§7 handoff state carry at epoch barriers.

    The run alternates two phases.  In the {e parallel} phase every cell
    advances its own session by one epoch — cells are independent work
    items fanned out over {!Wfs_runner.Pool} domains, and the pool's
    positional result ordering plus the cells' disjoint mutable state make
    the phase byte-identical for any [--jobs] value.  At the {e barrier},
    a single sequential pass draws mobility for every flow in ascending
    global id from the topology's one {!Mobility} stream, then executes
    the drawn handoffs: each affected cell is dissolved (metrics banked,
    carries exported, backlogs drained), departing flows change homes, and
    the affected cells are rebuilt with their new rosters, sessions
    resuming at the barrier slot.  Unaffected cells are never touched, so
    a zero-mobility topology runs each cell exactly as an independent
    single-cell simulation — the byte-identity anchor the tests pin.

    Cell [c] instantiates the spec's scenario with seed
    [cell_seed ~seed ~cell:c], so cells are statistically independent
    replicas of the same workload; the mobility stream takes the next
    seed in the sequence, and the chaos stream the one after that.

    {2 Graceful degradation under a fault plan}

    A spec whose topology clause carries an {e active}
    {!Wfs_runner.Spec.faults} plan gets a {!Wfs_chaos.Chaos} engine: all
    fault draws happen at the sequential barrier from the engine's own
    stream, so faulted runs stay byte-identical across [--jobs].  A
    crashed cell (random crash or an over-retry injected worker fault
    within budget) is dissolved — metrics banked, members parked as
    {e orphans} with their carries intact — and sits out whole epochs;
    its flows re-home to surviving cells at the {e next} barrier, passing
    through the same clamp-toward-zero carry ledger
    ({!Wfs_core.Invariant.check_carry}) as voluntary handoffs.  Handoffs
    can be blocked (destination down), lost (zero carry, empty backlog)
    or corrupted (digest mismatch detected, carry zeroed) in transit;
    blackout bursts force a cell's channels Bad without touching their
    underlying sample paths.  An inert plan engages no hook at all: the
    run is byte-identical to the same spec without a plan. *)

type t

val cell_seed : seed:int -> cell:int -> int
(** [seed + cell * 1_000_003] — the derived seed cell [cell] instantiates
    its scenario with.  Exposed so tests can run the matching independent
    single-cell spec. *)

val of_spec :
  ?credit_limit:int ->
  ?debit_limit:int ->
  ?histograms:bool ->
  ?invariants:bool ->
  ?fast_path:bool ->
  ?tap:Cell.tap ->
  ?causality:Wfs_xray.Causality.t ->
  Wfs_runner.Spec.t ->
  t
(** Build a topology from a spec carrying a topology clause.  The
    scheduler is resolved through {!Wfs_core.Registry.get}; every cell
    starts with its own instantiation of the spec's scenario ([cells × k]
    flows total, global ids assigned cell-major).

    [tap] is handed to every {!Cell} (per-cell tracing — see
    {!Cell.tap}); [causality] receives the flow-journey log: one
    {!Wfs_xray.Causality.Move} per mobility draw (with its chaos verdict;
    blocked moves stay put), a [Rehome] per orphan re-home, a [Crash] per
    cell crash — all recorded at the sequential barrier in draw order, so
    the log is byte-identical across [--jobs].  Per-flow [Carry] events
    come through the tap's [on_carry] (the cell import pass owns that
    information).  Both default to off at zero cost.
    @raise Invalid_argument when the spec has no topology clause, or on
    an unknown scheduler / example. *)

val n_cells : t -> int
val n_flows : t -> int
(** Topology-wide flow count (global ids are [0 .. n_flows - 1]). *)

val weights : t -> float array
(** Every flow's rate weight [r_i], indexed by global id (a copy) — the
    normalization denominators for windowed fairness aggregation. *)

val run : ?jobs:int -> ?on_barrier:(slot:int -> unit) -> t -> unit
(** Execute the whole horizon ([jobs] defaults to 1).  Single-shot:
    running twice raises.  [on_barrier] fires after each completed
    barrier (handoffs and fault processing done) with the barrier slot —
    the hook {!Topo_journal} epoch checkpoints are written from.  After
    [run] returns, {!metrics}, {!instruments}, {!homes} and {!handoffs}
    are valid.
    @raise Invalid_argument on a second call or [jobs < 1].
    @raise Wfs_util.Error.Error (kind [Sim_fault]) when injected worker
    faults exceed the plan's per-epoch budget, with the fault timeline
    attached to the error context; (kind [Invariant_violation]) on a
    carry-ledger breach. *)

val metrics : t -> Wfs_core.Metrics.t
(** Global accumulator, one row per global flow id, merged across cells
    in cell order; idle/busy slot counters are summed over cells.
    @raise Invalid_argument before {!run}. *)

val peek_metrics : t -> Wfs_core.Metrics.t
(** A fresh cumulative accumulator valid mid-run: every cell's bank plus
    its live session's counters, remapped to global ids, in cell order as
    in the final merge.  Beyond the fresh accumulator it visits only the
    rows of flows each cell has hosted, so its cost follows the flows and
    their moves, not cells × flows.  Intended for barrier-time sampling
    (windowed aggregation from an [on_barrier] hook); orphan parcels'
    drained backlogs are invisible until their re-home, exactly as in the
    final merge. *)

val cell_instruments : t -> cell:int -> Wfs_obs.Instruments.t
val instruments : t -> Wfs_obs.Instruments.t
(** Per-cell registries merged positionally in cell order
    ({!Wfs_obs.Instruments.merge_all}) — identical for any [jobs]. *)

val homes : t -> int array
(** Current home cell of every flow, indexed by global id (the initial
    assignment before {!run}, the final one after).  An orphaned flow
    still reports the crashed cell it last lived in. *)

val handoffs : t -> int
(** Total number of executed handoffs so far — voluntary moves plus
    chaos re-homes; blocked moves are not counted. *)

(** {1 Chaos} *)

val chaos_active : t -> bool
(** True when the spec carried an active fault plan. *)

val chaos_instruments : t -> Wfs_obs.Instruments.t option
(** The chaos engine's registry ([chaos.crashes], [chaos.rehomed],
    degradation gauges, ...) — global and barrier-side, deliberately
    separate from the positionally-merged per-cell registries.  [None]
    without an active plan. *)

val fault_timeline : t -> Wfs_chaos.Chaos.event list
(** Chronological fault events so far; [[]] without an active plan. *)

val orphaned : t -> int list
(** Global ids currently parked as crash orphans, ascending. *)

val snapshot : t -> slot:int -> Wfs_util.Json.t
(** The epoch checkpoint {!Topo_journal} records at each barrier: the
    slot, every flow's home, the handoff count and — under an active
    plan — the down mask, orphan set and fault count.  Two runs of the
    same spec agree on every snapshot iff they agree on the whole
    deterministic barrier history, which is what resume verification
    checks. *)
