(** Weighted Fair Queueing (PGPS) — Demers, Keshav & Shenker 1989.

    Packets are stamped with the virtual finish tag they would have under
    the GPS fluid system ({!Gps}) and served in increasing finish-tag order,
    non-preemptively.  Parekh–Gallager (the paper's Lemma 1): a packet
    finishes under WFQ no later than [L_p / C] after its fluid finish
    instant. *)

type t

val create : capacity:float -> Flow.t array -> t
val enqueue : t -> Job.t -> unit
val dequeue : t -> time:float -> Job.t option
val queued : t -> int

val gps : t -> Gps.t
(** The internal fluid reference (shared arrivals), exposed so tests can
    compare packetized and fluid behaviour on identical inputs. *)

val instance : capacity:float -> Flow.t array -> Sched_intf.instance
