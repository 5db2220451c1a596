(** Bounded streaming writers for per-slot {!Trace} samples.

    Two formats over one interface: {!jsonl} writes a [wfs-trace/1]
    framed stream ({!Wfs_util.Jsonl}); {!csv} writes a column-header row
    ([slot,selected,virtual_time,lag_sum] then
    [q{i},good{i},tag{i},credit{i}] per flow) and one comma row per
    sample, with optional quantities left as empty cells.  Memory use is
    O(1): each sample is written out as it arrives, so traces of any
    horizon stream to disk. *)

type t

val jsonl : path:string -> Trace.header -> t
(** Create/truncate [path] and write the header line. *)

val csv : path:string -> Trace.header -> t
(** Create/truncate [path] and write the CSV column header. *)

val write : t -> Trace.sample -> unit
(** Append one sample.
    @raise Wfs_util.Error.Error (kind [Bad_config]) on a closed sink or a
    sample whose flow count disagrees with the header. *)

val written : t -> int
(** Samples appended so far. *)

val close : t -> unit
(** Flush and close; idempotent.  A failed final flush raises
    [Sys_error]. *)
