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

    The tags live in one flat float ring (two cells per slot, power-of-two
    capacity, doubling growth, no storage before the first {!add}); there
    is no per-slot record. *)

type t

val create : weight:float -> t
(** [weight] is the flow's [r_i], used to compute finish tags
    ([F = S + 1/r_i] with packet size 1). *)

val length : t -> int
val is_empty : t -> bool

val add : t -> v:float -> unit
(** Append a slot for a packet arriving at virtual time [v]:
    [S = max(v, F_prev)], [F = S + 1/r].  Tags chain per equation (2)–(3). *)

val head_start : t -> float
val head_finish : t -> float
(** Tags of the earliest slot (the flow's service tag is its finish tag).
    @raise Invalid_argument on an empty queue. *)

val pop_front : t -> unit
(** Consume the head slot (successful transmission). *)

val pop_back : t -> unit
(** Discard the most recent slot (paired with a packet drop so the flow
    keeps its earliest tags).  Both pops raise [Invalid_argument] on an
    empty queue. *)

val lagging_count : t -> v:float -> int
(** Number of slots with finish tag strictly below [v] (a prefix, since
    tags are non-decreasing). *)

val trim_lagging : t -> v:float -> max_lagging:int -> int
(** Enforce the per-flow lag bound (Section 4.1 step 4a): if more than
    [max_lagging] slots lag behind [v], retain the [max_lagging]
    lowest-tagged ones and delete the rest of the lagging prefix, shifting
    whichever side of the deleted range is shorter.  Returns the number of
    slots deleted. *)

val clamp_lead : t -> v:float -> max_lead:float -> weight:float -> bool
(** Enforce the lead bound (Section 4.1 step 4b): if the head slot's start
    tag exceeds [v + max_lead/weight], reset it to exactly that and its
    finish tag to [start + 1/weight].  Returns [true] if clamped. *)

val to_list : t -> (float * float) list
(** [(start, finish)] pairs, front to back. *)
