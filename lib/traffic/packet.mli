(** Packets.

    The paper assumes small fixed-size packets, one per slot (Sections 4
    and 6); [size] is carried in bits for the variable-size wireline
    substrate (lib/wireline), where WFQ-family tags divide by it. *)

type t = {
  flow : int;  (** owning flow id *)
  seq : int;  (** per-flow sequence number, from 0 *)
  arrival : int;  (** arrival slot *)
  size : int;  (** bits; 1 in the slotted wireless model *)
  mutable attempts : int;  (** transmission attempts so far *)
}

val make : flow:int -> seq:int -> arrival:int -> ?size:int -> unit -> t
(** Fresh packet with [attempts = 0]; default [size] 1. *)

val delay : t -> departed:int -> int
(** Queueing delay in slots if delivered in slot [departed] (a packet
    delivered in its arrival slot has delay 0). *)

val age : t -> now:int -> int
(** Slots spent in the system so far. *)

val pp : Format.formatter -> t -> unit

(** One flow's FIFO of queued packets, stored as runs of ints.

    The wireless schedulers ({!Wfs_core.Iwfq}, {!Wfs_core.Wps},
    {!Wfs_core.Cifq}, {!Wfs_core.Csdps}) keep every queued packet here
    rather than as a heap block.  A flat [int array] is a circular buffer
    of entries, three cells each — first seq, arrival, tail — whose
    capacity is a power of two and doubles when full.  A tail [a >= 0] is
    one packet with [a] attempts; a tail [-k] is a run of [k + 1] packets
    with consecutive seqs, the entry's arrival slot and no attempts.  In
    the slotted model every packet a flow receives in one slot joins one
    run, which {!push_run} appends in one step, so a saturated queue grows
    per slot rather than per packet, while a stream of single arrivals
    costs one entry per packet.  A ring holds no storage until its first
    push, so flows that never receive a packet cost one small record.  The
    packet's [flow] is implied by whose ring it is, and [size] is not kept:
    slotted wireless packets are size 1.

    The encoding is invisible: every function below sees the packet
    sequence, one packet at a time.

    Reads and pops on an empty ring raise
    [Invalid_argument "Packet.Ring.<function>: empty queue"]. *)
module Ring : sig
  type packet := t
  type t

  val create : unit -> t
  (** An empty ring with no storage. *)

  val length : t -> int
  (** Packets queued. *)

  val is_empty : t -> bool

  val capacity : t -> int
  (** Entries the current storage holds, not packets: 0 before the first
      {!push}, then a power of two that doubles whenever the ring is full. *)

  val push : t -> packet -> unit
  (** Append at the tail, copying the packet's [seq], [arrival] and
      [attempts]; the record itself is not kept.  A packet with no
      attempts goes through {!push_run} as a run of one; a packet with
      attempts gets an entry of its own. *)

  val push_run : t -> seq:int -> arrival:int -> count:int -> unit
  (** [push_run t ~seq ~arrival ~count] appends [count >= 1] packets with
      seqs [seq .. seq + count - 1], arrival slot [arrival] and no
      attempts, in O(1): the same ring as [count] {!push}es of those
      packets.  The tail entry takes the whole run when its arrival slot
      matches, [seq] is one past its last seq, and it is not a single
      packet with attempts; otherwise the run gets an entry of its own.
      @raise Invalid_argument when [count < 1]. *)

  val pop_front : t -> unit
  (** Remove the head packet, shrinking the head entry. *)

  val pop_back : t -> unit
  (** Remove the most recent packet, shrinking the tail entry. *)

  val head_seq : t -> int
  val head_arrival : t -> int

  val head_attempts : t -> int
  (** Fields of the head packet; none of the three reads allocates. *)

  val bump_attempts : t -> unit
  (** Count one more transmission attempt on the head packet.  A head
      inside a run is first split off as its own entry in front of the
      rest of the run, growing the ring if it is full. *)

  val head : t -> flow:int -> packet
  (** The head packet as a fresh record owned by [flow] (size 1), for
      moving a backlog out of the ring; allocates. *)
end
