(** Incremental checkpoint journal for sweeps — the [wfs-bench/1] schema's
    crash-recovery extension.

    A journal is a framed stream ({!Wfs_util.Jsonl}): a header carrying
    the sweep [params], then one [{"key":...,"value":...}] record per
    completed job, appended and flushed as each job finishes.  Keys are
    the sweep's dedup job keys (see {!Wfs_runner.Spec.to_string} and the
    bench's custom keys), so a killed sweep restarted with [--resume]
    skips exactly the jobs whose results survived.  Torn tails and
    corruption follow the framed-stream rule (docs/ROBUSTNESS.md, "Framed
    streams").

    Appends are mutex-serialized and flushed per line, so the writer can
    be shared by every worker domain of a {!Pool}. *)

val schema : string
(** ["wfs-bench/1-journal"] — the default schema.  Derived journal formats
    (e.g. {!Wfs_topo.Topo_journal}'s ["wfs-bench/1-topo-journal"] epoch
    snapshots) reuse this module's atomic appender under their own schema
    string; a file is only ever readable under the schema it was written
    with. *)

type writer

val create :
  ?schema:string ->
  path:string ->
  params:(string * Wfs_util.Json.t) list ->
  unit ->
  writer
(** Truncate/create [path] and write the header line: the [schema] field
    (default {!schema}) plus [params] (the sweep settings the journal is
    only valid for — horizon, seed, ...). *)

val reopen : path:string -> writer
(** Open an existing journal for appending (header already present). *)

val append : writer -> key:string -> value:Wfs_util.Json.t -> unit
(** Append one completed-job line and flush it. *)

val close : writer -> unit

type contents = {
  params : (string * Wfs_util.Json.t) list;  (** header minus [schema] *)
  entries : (string * Wfs_util.Json.t) list;
      (** completed jobs, file order, duplicates kept (last one wins for
          resumption — rerunning a job after a resume overwrites it) *)
}

val load :
  ?schema:string -> path:string -> unit -> (contents, Wfs_util.Error.t) result
(** Read a journal back under [schema] (default {!schema}); an entry
    missing its key or value counts as undecodable. *)

val resume :
  ?schema:string ->
  path:string ->
  params:(string * Wfs_util.Json.t) list ->
  ((string * Wfs_util.Json.t) list -> 'a) ->
  'a * writer
(** [resume ~path ~params decode] is the resume rule every journal kind
    shares.  When [path] is absent it decodes no entries and creates the
    journal with a header carrying [params].  Otherwise it loads the file
    under [schema], refuses it when the header's params differ from
    [params] (compared as compact JSON, in any key order), decodes its
    entries and reopens it for appending.  [decode] runs before the file
    is reopened, so a journal it refuses by raising is left untouched.
    @raise Wfs_util.Error.Error (kind [Bad_spec]) on a corrupt journal,
    a wrong schema, or a header written for different settings — resuming
    over it could resurrect results of another run *)
