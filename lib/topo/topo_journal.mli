(** Epoch-granular checkpoint journal for multi-cell runs — the
    ["wfs-bench/1-topo-journal"] derived schema of {!Wfs_runner.Journal}
    (same appender and framed-stream rules, docs/ROBUSTNESS.md "Framed
    streams"; only the header schema differs).

    A topology's full simulation state is closure-held (live scheduler
    instances, channel processes) and cannot be serialized, so resume is
    {e verified deterministic replay} rather than state restoration.  The
    journal records, per spec:

    - one {b snapshot} line per completed epoch barrier
      ([<spec> #epoch:<slot>] → {!Topology.snapshot}), and
    - one {b result} line when the spec's run completes
      ([<spec> #result] → whatever payload the driver needs to render).

    A resumed driver replays each completed spec's result verbatim; a
    spec that was killed mid-run is re-run from slot 0, and every barrier
    that already has a journaled snapshot is {e verified} against the
    replay (compact-JSON equality) — a mismatch means the journal was
    written under different settings or code and is refused rather than
    silently extended.  Barriers past the journal's tail are appended as
    the replay overtakes it, so a run killed and resumed at an arbitrary
    epoch converges on a journal byte-identical to an uninterrupted
    run's.

    Header [params] must capture every setting that changes the run
    (credit/debit overrides, invariants — {e not} [jobs], which is
    output-invariant by construction); {!resume} compares them before
    trusting a journal. *)

val schema : string
(** ["wfs-bench/1-topo-journal"] *)

type writer

val create : path:string -> params:(string * Wfs_util.Json.t) list -> writer
val reopen : path:string -> writer
val close : writer -> unit

val append_snapshot :
  writer -> spec:string -> slot:int -> Wfs_util.Json.t -> unit

val append_result : writer -> spec:string -> Wfs_util.Json.t -> unit

type contents = {
  params : (string * Wfs_util.Json.t) list;  (** header minus [schema] *)
  snapshots : (string * (int * Wfs_util.Json.t) list) list;
      (** per spec (first-appearance order), barrier snapshots ascending
          by slot; duplicate (spec, slot) lines keep the last *)
  results : (string * Wfs_util.Json.t) list;
      (** completed specs, first-appearance order *)
}

val load : path:string -> (contents, Wfs_util.Error.t) result
(** {!Wfs_runner.Journal.load} under this schema, then key parsing:
    [Error] (kind [Bad_spec]) additionally on a structurally valid line
    whose key is not [<spec> #epoch:<n>] or [<spec> #result]. *)

val resume : path:string -> params:(string * Wfs_util.Json.t) list -> contents * writer
(** {!Wfs_runner.Journal.resume} under this schema: a fresh journal with
    empty contents when [path] is absent, otherwise the loaded contents
    and an append-mode writer.
    @raise Wfs_util.Error.Error (kind [Bad_spec]) as {!load} fails, or
    when the header's params differ from [params]. *)

val find_snapshot :
  contents -> spec:string -> slot:int -> Wfs_util.Json.t option

val find_result : contents -> spec:string -> Wfs_util.Json.t option
