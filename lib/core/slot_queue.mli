(** Per-flow slot queue — the tag side of Section 4.2's decoupling.

    IWFQ separates {e which packets} a flow holds (its packet queue) from
    {e when it may access the channel} (its slot queue).  Each arriving
    packet creates one logical slot stamped with WFQ start/finish tags; the
    flow's service tag is the finish tag of its head slot.  Packets may then
    be discarded by loss policies without the flow losing channel-access
    precedence: the slot queue always keeps the {e earliest} tags, so a
    lagging flow still wins the next good slot.

    Invariant maintained by callers (see {!Iwfq}): the slot queue and packet
    queue have equal length — a successful transmission pops both heads; a
    packet drop pops the packet plus the {e tail} slot; a lag-bound slot trim
    pops tail packets.

    The tags live in one flat float ring of {e runs} (power-of-two
    capacity, doubling growth, no storage before the first {!add}).  While
    a flow stays backlogged, each slot starts exactly where the one before
    it finished (equations (2)–(3)), so one two-cell entry — the first
    slot's start tag and the slot count — holds the whole stretch.  Every
    other tag is derived by the addition rule: a slot's finish is its start
    [+. 1/r_i], and the next slot of the entry starts at that finish.  The
    derivation repeats, one [+.] per slot, the additions {!add} performed,
    and no tag is computed in closed form, so every tag, comparison and
    selection is bit-identical to a queue that stored two floats per slot.

    - {!add} and {!add_run} extend the tail entry when the new slot
      starts at the chain and the chain is still the tail slot's finish;
      after a {!pop_back}, or a {!trim_lagging} that removed the tail,
      they open a new entry.
    - {!pop_front} walks the head entry's start forward by one slot.
    - {!trim_lagging} and {!clamp_lead} split entries, walking the same
      additions to each split point. *)

type t

val create : weight:float -> max_lead:float -> t
(** [weight] is the flow's [r_i], used to compute finish tags
    ([F = S + 1/r_i] with packet size 1); [max_lead] is its lead bound
    [l_i] in packets, which {!clamp_lead} enforces. *)

val length : t -> int
(** Slots queued. *)

val is_empty : t -> bool

val capacity : t -> int
(** Entries the ring has room for before it grows: 0 before the first
    {!add}, then a power of two.  A backlogged flow's slots share one
    entry. *)

val add : t -> v:float -> unit
(** Append a slot for a packet arriving at virtual time [v]:
    [S = max(v, F_prev)], [F = S + 1/r].  Tags chain per equation (2)–(3). *)

val add_run : t -> v:float -> count:int -> unit
(** [count >= 1] slots for packets arriving together at virtual time [v]:
    the same queue, tags and chain as [count] calls of {!add} at [v].
    Every slot after the first starts at the finish before it, so the run
    extends one entry, and the chain advances by the same [count]
    additions of [1/r], not by a product.
    @raise Invalid_argument when [count < 1]. *)

val head_start : t -> float
val head_finish : t -> float
(** Tags of the earliest slot (the flow's service tag is its finish tag).
    @raise Invalid_argument on an empty queue. *)

val pop_front : t -> unit
(** Consume the head slot (successful transmission). *)

val pop_back : t -> unit
(** Discard the most recent slot (paired with a packet drop so the flow
    keeps its earliest tags).  The next {!add} still chains from the
    discarded slot's finish.  Both pops raise [Invalid_argument] on an
    empty queue. *)

val lagging_count : t -> v:float -> int
(** Number of slots with finish tag strictly below [v] (a prefix, since
    tags are non-decreasing). *)

val trim_lagging : t -> v:float -> max_lagging:int -> int
(** Enforce the per-flow lag bound (Section 4.1 step 4a): if more than
    [max_lagging] slots lag behind [v], retain the [max_lagging]
    lowest-tagged ones and delete the rest of the lagging prefix.  The
    entry holding the first deleted slot keeps the slots before it; the
    entry holding the first slot after the deleted range keeps the slots
    from there on, its start walked forward to it.  A range inside one
    entry splits it in two.  Returns the number of slots deleted. *)

val clamp_lead : t -> v:float -> bool
(** Enforce the lead bound (Section 4.1 step 4b): if the head slot's start
    tag exceeds [v + max_lead/weight], reset it to exactly that, so its
    finish becomes [start + 1/weight].  A head slot sharing an entry is
    split off first; the rest of the entry starts where the head finished
    before the clamp.  Returns [true] if clamped. *)

val to_list : t -> (float * float) list
(** [(start, finish)] pairs, front to back. *)
