(** The [wfs-causality/1] handoff/fault causality log.

    One line-oriented JSONL stream per topology run: a header line carrying
    the schema tag, then one compact JSON object per event, in the exact
    order the sequential epoch barrier produced them (chaos verdict draws in
    ascending flow id, then rehomes, then the carry import of every rebuilt
    cell) — so the §5 lag-compensation and §7 credit-bound ledgers can be
    replayed per flow end-to-end: which cell the flow sat in each epoch,
    what lag/credit it carried across each handoff, how much the importing
    scheduler's clamp truncated, and which chaos verdict each handoff drew.

    The file is a framed stream ({!Wfs_util.Jsonl}; docs/ROBUSTNESS.md,
    "Framed streams") with no header fields. *)

val schema : string
(** ["wfs-causality/1"] *)

type event =
  | Move of { slot : int; flow : int; src : int; dst : int; verdict : string }
      (** a mobility draw moved [flow] from cell [src] toward [dst] under
          chaos verdict {!verdict_deliver} / {!verdict_blocked} /
          {!verdict_lost} / {!verdict_corrupt} (blocked flows stay in
          [src]) *)
  | Rehome of { slot : int; flow : int; dst : int }
      (** an orphaned flow (its cell crashed) was re-homed to [dst] *)
  | Crash of { slot : int; cell : int; orphaned : int list }
      (** [cell] crashed at the barrier, orphaning the listed flows *)
  | Carry of {
      slot : int;
      flow : int;
      cell : int;
      carried : Wfs_core.Wireless_sched.carry;
      accepted : Wfs_core.Wireless_sched.carry;
    }
      (** the importing [cell]'s scheduler accepted [accepted] of the
          [carried] lag/credit; the difference is the §5/§7 clamp
          truncation (or a chaos Lost/Corrupt rewrite) *)

val verdict_deliver : string
val verdict_blocked : string
val verdict_lost : string
val verdict_corrupt : string

val event_to_json : event -> Wfs_util.Json.t
val event_of_json : Wfs_util.Json.t -> event option
val event_to_string : event -> string

val event_of_string : string -> event option
(** Bit-exact round-trip of {!event_to_string} (floats restore the same
    bits; qcheck-verified). *)

val event_equal : event -> event -> bool
(** Floats compare by total order, so [nan] carries round-trip as equal. *)

val slot_of : event -> int

(** {1 In-run collector} *)

type t

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list
(** Recorded events in chronological (recording) order. *)

val count : t -> int

(** {1 File round-trip} *)

val write : path:string -> event list -> unit

val load : path:string -> (event list, Wfs_util.Error.t) result

(** {1 Per-flow replay} *)

val journey : event list -> flow:int -> event list
(** The flow's own events (moves, rehomes, carries) in order. *)

val truncation : event list -> flow:int -> float * int
(** Total absolute lag / credit truncated across all of the flow's carry
    imports (the clamp's cumulative bite). *)

val flows : event list -> int list
(** Sorted ids of every flow that appears in the log. *)
