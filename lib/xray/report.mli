(** Offline dashboard rendering for [wfs_report].

    A report is a list of sections, each a heading plus {!Wfs_util.Tablefmt}
    tables and free-form notes.  Section builders exist for every on-disk
    artifact this repo produces — wfs-bench/1 artifacts, wfs-trace/1
    single-cell traces, wfs-xray-trace/1 merged topology timelines,
    wfs-causality/1 flow-journey logs, wfs-windows/1 aggregation streams,
    wfs-chaos/1-timeline fault logs, and skip-telemetry collectors — and
    the whole list renders to aligned text or a self-contained HTML page
    (inline CSS, no external assets: the CI dashboard artifact). *)

type section = {
  heading : string;
  tables : Wfs_util.Tablefmt.t list;
  notes : string list;
}

val section :
  heading:string -> ?notes:string list -> Wfs_util.Tablefmt.t list -> section

val of_artifact : Wfs_runner.Artifact.t -> section
(** Run-parameter summary plus every artifact table, re-rendered. *)

val of_trace : Wfs_obs.Trace.contents -> section
(** Single-cell trace: sample counts, idle share, per-flow sampled service
    and the Jain index over sampled selections. *)

val of_xray : Mux.contents -> section
(** Merged topology timeline: per-cell roster/sample/selection counts and
    per-cell Jain over sampled selections (resident flows only), plus a
    global summary. *)

val of_causality : Causality.event list -> section
(** Flow journeys: per flow, its move/blocked/lost/corrupt/rehome counts,
    cumulative clamp truncation ({!Causality.truncation}) and the cell
    path it walked; plus a crash table. *)

val of_windows : Windowed.contents -> section

val of_skip : Wfs_core.Skip_stats.t -> section

val of_timeline : path:string -> (section, Wfs_util.Error.t) result
(** Load a {!Wfs_chaos.Chaos.timeline_schema} fault timeline and
    summarize events per fault kind. *)

val of_file : path:string -> (section, Wfs_util.Error.t) result
(** Load any artifact above and render its section, dispatched on the
    schema tag: a framed stream's header line ({!Wfs_util.Jsonl.schema_of})
    or, for a pretty-printed wfs-bench/1 document, the whole document
    ({!Wfs_runner.Artifact.read}).  An unknown schema is an [Error] (kind
    [Bad_spec]) naming the path and the schema. *)

val to_text : section list -> string

val print : section list -> unit
(** [print s] echoes [to_text s] to stdout — the report CLI's rendering
    surface (sanctioned R8 exception, like [Tablefmt.print]). *)

val to_html : title:string -> section list -> string
(** A single self-contained HTML page (inline CSS, escaped cells). *)

val write_html : path:string -> title:string -> section list -> unit
(** Write {!to_html} to [path]; a failed final flush raises
    [Sys_error]. *)
