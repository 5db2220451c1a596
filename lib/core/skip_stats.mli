(** Fast-path skip telemetry.

    Counts the quiescent-slot windows absorbed in closed form by the
    event-compressed engine ({!Simulator.advance}'s fast path).  All updates
    happen at window granularity — one counter bump and one histogram
    observation per absorbed window, one counter bump per declined window —
    never per slot, so attaching a collector keeps the engine on the
    compressed path.  Unlike end-of-slot hooks, traces and profilers, a
    collector does NOT degenerate the fast path to the reference loop. *)

type t

val create : unit -> t

(** {1 Recording (called by the simulator)} *)

val note_window : t -> slots:int -> unit
(** An absorbed quiescent window of [slots] slots was skipped in closed
    form. *)

val note_declined : t -> unit
(** The engine reached a candidate window boundary but could not absorb it
    (backlog pending or the next event was immediate). *)

val note_engine : t -> slots:int -> unit
(** [slots] slots were advanced under the compressed engine (absorbed or
    stepped one-by-one). *)

val note_reference : t -> slots:int -> unit
(** [slots] slots were advanced by the reference loop (fast path off or
    degenerated). *)

(** {1 Accessors} *)

val absorbed_windows : t -> int
val absorbed_slots : t -> int
val declined_windows : t -> int
val engine_slots : t -> int
val reference_slots : t -> int
val max_window : t -> int

val window_hist : t -> Wfs_util.Stats.Histogram.t
(** Histogram of absorbed-window lengths (bin width 16 slots). *)

val total_slots : t -> int

val quiescence_ratio : t -> float
(** Absorbed slots over total slots advanced; 0 when nothing ran. *)

val compressed : t -> bool
(** True iff every advanced slot went through the compressed engine. *)

val merge : t -> t -> t
(** Fresh collector holding the sum of both; [max_window] is the max. *)

val to_json : t -> Wfs_util.Json.t

val of_json : Wfs_util.Json.t -> t option
(** Bit-exact round-trip of {!to_json}. *)
