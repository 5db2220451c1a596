(** Span-based self-profiler over a monotonic clock.

    Two granularities share one accumulator object:

    - {b slot phases}: {!hooks} produces the
      {!Wfs_core.Simulator.profiler_hooks} pair; the simulator calls them
      around each phase of each slot (arrivals, predict, drops, select,
      transmit, slot-end).  The hooks only read the clock and store into
      preallocated per-phase arrays — no allocation per call — but a clock
      read per phase is still real overhead, so profiling is strictly
      opt-in and never on in measurement runs;
    - {b stages}: {!span} wraps coarse runner/bench stages (load, sweep,
      render) and may nest; each completed span records its name, nesting
      depth and duration.

    The clock is bechamel's [CLOCK_MONOTONIC] stub — durations only,
    never wall-clock time (lint R1); nothing derived from it enters a
    result table.  A profiler instance is single-domain: share one per
    worker, not one across workers. *)

type t

val create : unit -> t

val hooks : t -> Wfs_core.Simulator.profiler_hooks
(** Phase hooks bound to this accumulator.  Pass to
    [Sim_config.with_profiler] / [Mac_sim.config ~profiler]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()]; nesting is recorded via depth.  The span
    is recorded even when [f] raises (the exception propagates). *)

val phase_count : t -> int -> int
val phase_total_ns : t -> int -> int
val phase_max_ns : t -> int -> int
(** Indexed by the {!Wfs_core.Simulator} phase ids. *)

val total_ns : t -> int
(** Sum over all phases. *)

type span_record = { name : string; depth : int; seq : int; ns : int }

val spans : t -> span_record list
(** Completed spans in start order. *)

val phase_table : ?title:string -> slots:int -> t -> Wfs_util.Tablefmt.t
(** Per-phase calls / total ms / ns-per-call / ns-per-slot / max, plus an
    [all] summary row; [slots] is the simulated slot count the per-slot
    column divides by. *)

val span_table : ?title:string -> t -> Wfs_util.Tablefmt.t
(** One row per completed span, indented two spaces per nesting level. *)
