(** The bench's machine-readable result artifact ([BENCH_*.json]).

    One artifact captures a whole bench invocation: the run parameters
    (horizon, base seed, replication count, worker count), the throughput
    of the engine itself (wall-clock seconds and simulated slots/second —
    the perf trajectory the ROADMAP asks for), and every measured table as
    title + columns + cell rows, exactly as rendered.  {!write} and
    {!read} round-trip: [read path] after [write ~path t] yields [Ok t']
    with [equal t t'].

    Wall-clock values are measured by the {e caller} (the bench binary) and
    passed in — nothing in this library reads a clock, so results stay
    deterministic (lint rule R1). *)

type table = {
  title : string;
  columns : string list;
  rows : string list list;  (** rendered cells, row-major *)
}

type t = {
  schema : string;  (** {!schema_version} *)
  horizon : int;
  seed : int;  (** base seed; replication k runs with seed + k *)
  seeds : int;  (** replications per spec (>= 1) *)
  jobs : int;  (** worker domains used *)
  runs : int;  (** distinct simulation runs executed *)
  slots : int;  (** total slots simulated across all runs *)
  wall_clock_s : float;  (** caller-measured elapsed time; 0 when unknown *)
  slots_per_sec : float;  (** [slots /. wall_clock_s]; 0 when unknown *)
  tables : table list;
}

val table_of : Wfs_util.Tablefmt.t -> table
(** A rendered table's title, columns and padded rows, as stored. *)

val schema_version : string
(** ["wfs-bench/1"] *)

val v :
  horizon:int ->
  seed:int ->
  seeds:int ->
  jobs:int ->
  runs:int ->
  slots:int ->
  wall_clock_s:float ->
  tables:table list ->
  t
(** Fills in [schema] and derives [slots_per_sec]. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val write : path:string -> t -> unit
(** A failed final flush raises [Sys_error]. *)

val read : string -> (t, string) result
(** [Error] on unreadable file, bad JSON, missing fields, or an unknown
    schema version. *)

val equal : t -> t -> bool
