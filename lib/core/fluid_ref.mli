(** Slotted error-free fluid fair queueing reference service.

    The wireless fairness model (Section 3) measures every flow against the
    service it {e would} have received from a fluid fair queueing server
    with the same arrivals and {e no} channel errors.  This module simulates
    that reference exactly on the slotted time axis: arrivals land at slot
    starts, and during each slot one packet's worth of capacity is
    distributed among backlogged flows in proportion to their weights
    (water-filling handles flows that empty mid-slot).

    The system virtual time [v(t)] advances with slope [C / Σ_{i∈B(t)} r_i]
    during fluid busy periods and is constant when idle; IWFQ stamps
    arriving packets with [v] at their arrival instant.

    The reference keeps the backlogged set [B(t)] — the flows whose fluid
    backlog exceeds the drain epsilon — in ascending flow id, so its cost
    follows the backlogged flows, not the flow count: {!step} costs
    O(|B| · passes) (one water-filling pass per flow that drains mid-slot,
    plus one), {!is_busy} O(1), and {!add_arrivals} O(|B|) when it adds a
    flow to the set.  Every pass sums weights, takes the drain minimum and
    serves flows in ascending id, the order of a scan over all flows that
    skips the idle ones; that order is the contract that keeps virtual
    times, service and everything derived from them bit-identical, since
    float sums round differently in another order. *)

type t

val create : ?capacity:float -> weights:float array -> unit -> t
(** [capacity] in packets per slot, default 1.  Weights must be positive. *)

val add_arrivals : t -> flow:int -> count:int -> unit
(** Register [count] packet arrivals at the current instant (the start of
    the next un-stepped slot): one [+. 1.] on the flow's backlog per
    packet, so a batch leaves the same bits as [count] single arrivals. *)

val virtual_time : t -> float
(** [v] at the current instant. *)

val step : t -> unit
(** Advance one slot of fluid service: O(|B|) per water-filling pass. *)

val is_busy : t -> bool
(** [true] iff some flow has fluid backlog above the drain epsilon — the
    exact predicate {!step}'s water-filling uses to decide whether a slot
    does any work.  When [false] (and no arrivals intervene), a step only
    increments the slot counter.  O(1): the backlogged set is non-empty. *)

val skip_idle : t -> slots:int -> unit
(** Advance the slot counter by [slots] without serving anything.
    Identical to calling {!step} [slots] times while {!is_busy} is [false]:
    an idle step moves no fluid and leaves [v] unchanged, so the closed
    form is a single addition. *)

val slot : t -> int
(** Number of slots stepped so far. *)

val queue : t -> flow:int -> float
(** Fluid backlog of [flow] at the current instant, in packets. *)

val service : t -> flow:int -> float
(** Cumulative fluid service granted to [flow], in packets. *)
