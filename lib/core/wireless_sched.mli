(** Runtime interface every wireless scheduler implements.

    The {!Simulator} drives a scheduler through this record once per slot:
    arrivals are enqueued, then [select] picks the flow to transmit given
    the current channel {e predictions}, and the transmission outcome
    (decided by the true channel state) is reported back via [complete] /
    [fail] / [drop_head].  Schedulers own the per-flow packet queues so
    they can make backlog-aware decisions.

    {b Packet store.}  Each flow's queue is a {!Wfs_traffic.Packet.Ring}:
    [arrive] appends a slot's batch of fresh packets to it as one run,
    [enqueue] copies a packet's seq, arrival and attempts into it, and
    the driver reads the head through [packets] without allocating.  The
    driver owns the attempt count: on a failed transmission it calls
    {!Wfs_traffic.Packet.Ring.bump_attempts} on the flow's ring before
    [fail], then compares the head's attempts with the retransmission
    limit.  Delay-bound drops are a driver loop too: while the flow's
    ring is non-empty and its head arrived more than [bound] slots ago
    ({!head_expired}), call [drop_head].  Arrivals are FIFO, so that loop
    removes exactly the expired packets; no scheduler keeps a separate
    expiry path.

    {b Error convention.}  [select] returns an option, since idling is an
    expected state; emptiness of a flow is read off its ring.  Outcome
    callbacks ([complete], [fail], [drop_head]) may only refer to the
    head packet of a non-empty flow (the one [select] just offered, or an
    expired head); calling them on a flow with an empty queue is a driver
    bug and raises
    [Invalid_argument "<Module>.<function>: empty queue"] — uniformly
    worded across implementations so tests can assert on it.  Contrast
    {!Wfs_wireline.Sched_intf}, whose [dequeue] returns [None] instead of
    raising, because there an empty queue is a normal idle condition. *)

(** Read-only introspection hooks for the runtime {!Invariant} monitor.
    Every field is optional — a scheduler exposes exactly the quantities
    whose paper-stated safety properties apply to it — and reading a
    probe must not mutate scheduler state. *)
type probe = {
  virtual_time : (unit -> float) option;
      (** Global virtual time (IWFQ's fluid reference, Section 4.1):
          checked finite and monotonically non-decreasing. *)
  finish_tag : (int -> float) option;
      (** Per-flow service/finish tag: checked never-NaN, and finite for
          every backlogged flow (Section 4.1's slot tagging; CIF-Q's
          per-flow reference virtual time). *)
  credit : (int -> int * int * int) option;
      (** Per-flow [(balance, credit_limit, debit_limit)]: balance checked
          within [[-debit_limit, credit_limit]] (Section 7's bounded
          credit/debit accounting). *)
  lag_sum : (unit -> int) option;
      (** Sum of per-flow lags (CIF-Q): its per-slot change is checked in
          {m \{0, +1\}} — selection conserves total lag (+1 to the
          reference pick, −1 to the transmitter) and only a failed
          transmission returns (+1) the transmitter's debit. *)
  work_conserving : bool;
      (** When true, an idle slot while some backlogged flow is predicted
          good is a violation (the paper's work-conservation property for
          IWFQ/CIF-Q; false for WRR/WPS frame membership and CSDPS
          backoff, which idle by design). *)
}

val no_probe : probe
(** All fields [None]/[false] — the default for hand-built instances. *)

(** {1 Handoff state carry (Section 5 / Section 7)}

    When a flow hands off between cells ({!Wfs_topo}), the compensation
    state the paper attaches to the {e flow} — its §5 lag/lead (service
    error accrued against the error-free reference) and its §7 credit
    balance — must move with it, or fairness resets at every cell
    boundary.  Everything else a scheduler keeps is {e cell-local}
    (virtual times, frame position, α-accounting, predictor history) and
    is deliberately {b not} carried: a flow arrives at the new base
    station with its debt, not with the old cell's clock. *)

type carry = {
  lag : float;
      (** §5 lag/lead in packets: positive = the flow is owed service
          (lagging), negative = leading.  Float because IWFQ-family lags
          are virtual-time-denominated; integral schedulers round. *)
  credit : int;  (** §7 credit balance: positive = credit, negative = debt. *)
}

val carry_zero : carry
(** Zero lag, zero credit — what a freshly admitted flow carries. *)

type handoff = {
  export : flow:int -> carry;
      (** Serialize the flow's compensation state out of this scheduler.
          Read-only: exporting must not mutate scheduler state (the same
          contract as {!probe}). *)
  import : flow:int -> carry -> carry;
      (** Fold a carried state into this scheduler's own accounting,
          clamped to its §5/§7 bounds, and return the {e accepted} carry
          — so a topology ledger can account for what clamping truncated
          ([carried = accepted + truncated]).  Must only be called before
          the flow's first slot in this scheduler. *)
}

(** {1 Quiescent-slot compression}

    A slot is {e quiescent} for a scheduler when it holds no backlog: no
    enqueue happens, [select] returns [None], and the only state that
    moves is whatever per-slot clockwork the discipline runs while idle
    (IWFQ's fluid reference slot counter, CSDPS's round-robin rotation).
    The event-compressed simulator asks the scheduler to advance that
    clockwork across a whole idle window in closed form instead of
    calling [select]/[on_slot_end] once per slot. *)
type quiescent = {
  backlog_empty : unit -> bool;
      (** [true] iff no flow has a queued packet.  Read-only.  While this
          holds and no arrival intervenes, every slot is quiescent. *)
  advance_quiescent : now:int -> slots:int -> int;
      (** [advance_quiescent ~now ~slots] advances the scheduler's idle
          clockwork as if the per-slot driver ran [slots] consecutive
          empty slots starting at slot [now] (no enqueues, idle selects,
          end-of-slot hooks), and returns how many slots were actually
          absorbed, in [0..slots].  A return of [k < slots] tells the
          driver to fall back to the per-slot path at slot [now + k];
          returning [0] is always safe.  Must leave the scheduler
          byte-identical (selections, tags, credits, metrics thereafter)
          to the stepped execution — the differential lockstep suite
          enforces this per scheduler. *)
}

type instance = {
  name : string;
  enqueue : slot:int -> Wfs_traffic.Packet.t -> unit;
      (** A packet arrived at the start of [slot].  For packets that carry
          attempts (a handoff re-queueing a backlog) and for tests; fresh
          arrivals go through [arrive]. *)
  arrive : slot:int -> flow:int -> seq:int -> count:int -> unit;
      (** [arrive ~slot ~flow ~seq ~count] adds [count >= 1] fresh packets
          to [flow] at the start of [slot]: seqs [seq .. seq + count - 1],
          arrival [slot], no attempts.  It leaves the same state as
          [count] calls of [enqueue] with those packets, in order, but
          costs one call, no packet records, and one
          {!Wfs_traffic.Packet.Ring.push_run}.  The drivers call it once
          per source and slot, with the prefix of the slot's batch that
          fits the flow's buffer. *)
  select : slot:int -> predicted_good:(int -> bool) -> int option;
      (** Flow chosen to transmit in [slot], or [None] to idle.  Called
          exactly once per slot, after all arrivals for that slot. *)
  packets : int -> Wfs_traffic.Packet.Ring.t;
      (** The flow's packet queue, head first.  Drivers read the head's
          seq, arrival and attempts from it and may only mutate it through
          {!Wfs_traffic.Packet.Ring.bump_attempts}; pushes and pops go
          through [arrive], [enqueue], [complete] and [drop_head], which
          keep the scheduler's own indexes in step. *)
  complete : flow:int -> unit;
      (** The selected flow's head packet was delivered: consume it. *)
  fail : flow:int -> unit;
      (** The transmission failed; the packet stays at the head for
          retransmission. *)
  drop_head : flow:int -> unit;
      (** Drop the head packet (retransmission limit exceeded, or delay
          bound passed). *)
  queue_length : int -> int;
  on_slot_end : slot:int -> unit;
      (** End-of-slot housekeeping (e.g. advancing IWFQ's fluid
          reference). *)
  probe : probe;
      (** Introspection for the runtime invariant monitor; {!no_probe}
          when the scheduler exposes nothing. *)
  handoff : handoff option;
      (** Handoff state carry, for schedulers whose compensation state is
          flow-attachable ({!Wps} credits, {!Cifq} lag).  [None] when the
          scheduler has no carryable per-flow state (IWFQ derives lag
          from its fluid reference; CSDPS grants are positional). *)
  quiescent : quiescent option;
      (** Closed-form idle-window advancement; [None] forces the per-slot
          path (the simulator's fast path degenerates to the reference
          loop for such schedulers). *)
}

val head_expired : instance -> flow:int -> now:int -> bound:int -> bool
(** [true] iff the flow's queue is non-empty and its head packet arrived
    more than [bound] slots before [now]: the condition of the drivers'
    delay-bound drop loop ([while head_expired ... do drop_head ... done]).
    Allocation-free. *)
