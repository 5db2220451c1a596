(** One cell of a multi-cell topology: a scheduler instance plus an
    epoch-resumable {!Wfs_core.Simulator.Session} over the flows currently
    homed here.

    A cell's flow roster changes at epoch barriers, so the cell follows a
    dissolve/rebuild protocol: {!dissolve} banks the live session's
    metrics into the cell's bank and serializes every member into a
    {!parcel} — its §5/§7
    compensation {!Wfs_core.Wireless_sched.carry} exported through the
    scheduler's handoff hook plus its backlog drained in FIFO order —
    then {!rebuild} re-admits a (possibly different) parcel list: flows
    are re-numbered to dense local ids in ascending global id, the
    scheduler is constructed fresh, carries are imported (clamped to the
    new scheduler's bounds, with truncation accounted), backlogs are
    re-enqueued, and a new session resumes at the barrier slot.  Sources
    and channels live in the {!member} and are queried with absolute slot
    numbers, so a flow that never moves sees the same sample path as in a
    single-cell run.

    The bank holds one {!Wfs_core.Metrics} row per flow the cell has
    hosted, added empty when that flow is first banked, and the global id
    of each row.  Its size follows the flows that passed through the cell,
    not the topology's flow count, and {!peek} and {!finish} fold it into
    a global-id accumulator row by row.

    All per-cell telemetry lives in an {!Wfs_obs.Instruments} registry
    created by {!create} with a fixed registration order, so the
    topology can {!Wfs_obs.Instruments.merge_all} cells positionally. *)

module Sched = Wfs_core.Wireless_sched

type member = {
  gid : int;  (** global flow id, stable across handoffs *)
  setup : Wfs_core.Simulator.flow_setup;
      (** the flow's own parameters, source and channel — these move with
          the flow; only the [Params.flow.id] is rewritten per cell *)
}

type parcel = {
  member : member;
  carry : Sched.carry;  (** §5 lag + §7 credit, as exported *)
  backlog : Wfs_traffic.Packet.t list;  (** queued packets, FIFO order *)
  moved : bool;
      (** true when this parcel is crossing cells (set by the topology
          driver); reimports of stay-at-home flows keep it false so the
          carry telemetry counts genuine handoffs only *)
}

(** Observability tap, wired by the topology driver (the xray layer).
    Every callback fires from sequential code only: [on_roster] announces
    the cell's membership (ascending global ids, local index = array
    position) at creation and at every barrier rebuild; [on_carry] reports
    each {e moved} parcel's carried vs accepted lag/credit during a
    rebuild's import pass; [probe] is invoked once per (re)build with the
    fresh scheduler instance and may return an end-of-slot hook to attach
    to the new session, after the invariant monitor when [invariants] is
    on — the only tap artifact running inside the parallel phase, so it
    must write to per-cell state only (e.g. a [Wfs_xray.Mux] part).
    Returning a hook degenerates that cell's fast path, exactly like a
    single-cell probed run; returning [None] keeps it. *)
type tap = {
  on_roster : cell:int -> slot:int -> gids:int array -> unit;
  probe :
    cell:int ->
    n_flows:int ->
    Sched.instance ->
    Wfs_core.Simulator.hook option;
  on_carry :
    cell:int ->
    slot:int ->
    gid:int ->
    carried:Sched.carry ->
    accepted:Sched.carry ->
    unit;
}

type t

val create :
  ?credit_limit:int ->
  ?debit_limit:int ->
  ?histograms:bool ->
  ?invariants:bool ->
  ?fast_path:bool ->
  ?tap:tap ->
  id:int ->
  sched:Wfs_core.Registry.entry ->
  horizon:int ->
  member list ->
  t
(** A cell with the given initial roster, session started at slot 0, and
    an empty bank.  The roster may be empty (an empty cell simulates
    nothing until flows hand off into it). *)

val id : t -> int
val n_members : t -> int

val gids : t -> int list
(** Global ids of the current members, ascending. *)

val advance : t -> until:int -> unit
(** Advance this cell's session to [until] (a no-op past the roster for an
    empty cell) and count the epoch.  Safe to call from a pool worker:
    touches only this cell's state. *)

val dissolve : t -> parcel list
(** Bank the live session's metrics and serialize every member out,
    ascending global id.  The cell is left empty; follow with
    {!rebuild}. *)

val rebuild : t -> slot:int -> parcel list -> t
(** Re-admit a parcel list (any order; sorted internally by global id) and
    resume the session at [slot].  Imported carries are clamped by the
    scheduler's own {!Sched.handoff} hook; the accepted and truncated
    amounts of {e moved} parcels are accumulated in the cell's
    instruments.  A scheduler without a handoff hook truncates the whole
    carry.  Returns [t] for chaining.
    @raise Wfs_util.Error.Error (kind [Invariant_violation]) when an
    import violates the carry ledger — the accepted state exceeds or
    flips the sign of what was carried (a scheduler handoff-hook bug). *)

val note_departure : t -> unit
val note_arrival : t -> unit
(** Handoff counters, bumped by the topology driver per move. *)

val peek : t -> into:Wfs_core.Metrics.t -> unit
(** Absorb the cell's cumulative view — the bank, then the live session's
    accumulator, both remapped to global flow ids — into [into] without
    disturbing the session.  Only the flows this cell has hosted are
    visited.  Barrier-time sampling for windowed aggregation. *)

val finish : t -> into:Wfs_core.Metrics.t -> unit
(** Advance to the horizon if needed, bank the final session, and absorb
    the bank into [into], a global-id accumulator. *)

val instruments : t -> Wfs_obs.Instruments.t
(** The per-cell registry; identical shape across cells. *)
