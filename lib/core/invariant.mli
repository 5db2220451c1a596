(** Runtime monitors for the paper's scheduler safety properties.

    A monitor is attached to one simulation run as an end-of-slot
    {!hook} and checked once per slot, after the slot's transmission
    outcome and [on_slot_end] housekeeping.  Each check reads
    the scheduler's {!Wireless_sched.probe} — schedulers that do not
    expose a quantity are simply not checked for it — and a violation
    raises {!Wfs_util.Error.Error} with kind [Invariant_violation],
    carrying the slot, the scheduler name, and the paper section the
    property comes from.

    Checked properties:

    - {b virtual-time monotonicity} — the fluid reference's virtual time
      is finite and never decreases (Section 4.1).
    - {b finish-tag sanity} — per-flow service/finish tags are never NaN,
      and finite for every backlogged flow (Sections 4.1, 5).
    - {b credit bounds} — every flow's credit balance stays within
      [[-debit_limit, credit_limit]] (Section 7).
    - {b lag conservation} — the sum of per-flow lags changes by 0 or +1
      per slot: selection moves lag between the reference pick and the
      transmitter without creating any, and only a failed transmission
      returns the transmitter's debit (Section 5 / CIF-Q).
    - {b work conservation} — a scheduler that declares itself
      work-conserving may not idle a slot while some backlogged flow is
      predicted clean (Sections 4, 5). *)

type t

val create : unit -> t
(** A fresh monitor (no history).  Use one per run — the monotonicity and
    lag-delta checks compare against the previous slot of the same run. *)

val check :
  t ->
  slot:int ->
  sched:Wireless_sched.instance ->
  n_flows:int ->
  predicted_good:(int -> bool) ->
  selected:int option ->
  unit
(** Check every property [sched.probe] exposes for the slot that just
    ended.  [predicted_good] and [selected] must be the prediction
    function and selection actually used for that slot.
    @raise Wfs_util.Error.Error (kind [Invariant_violation]) on the first
    violated property. *)

val hook : Wireless_sched.instance -> Simulator.hook
(** A fresh monitor on [sched], as an end-of-slot hook: it checks every
    slot against the hook's [selected] and [predicted_good], over the
    flows of its [states] array.  The monitor keeps its history, so build
    one per run.  Checked runs are byte-identical to unchecked ones,
    because the monitor only reads scheduler probes and the hook's
    non-mutating prediction view.  Add it before any other hook, so that
    a violation stops the run before the slot is reported elsewhere. *)

val check_carry :
  who:string ->
  context:(string * string) list ->
  carried:Wireless_sched.carry ->
  accepted:Wireless_sched.carry ->
  unit
(** {b Carry conservation} (Section 5 / Section 7): when a handoff —
    including a chaos-layer re-home after a cell crash — imports
    compensation state, the accepted carry may only clamp the carried one
    toward zero: the signs must agree (or a side be zero), [|lag|] may
    not grow beyond a half-transmission of import rounding, and [|credit|]
    may not grow at all.  Stateless, so it also covers flows re-homed
    from a crashed cell whose importing scheduler never saw the exporter.
    [context] is prepended to the violation's context (cell, flow, ...).
    @raise Wfs_util.Error.Error (kind [Invariant_violation]). *)
