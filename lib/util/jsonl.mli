(** Framed JSON-lines streams: the one framing every line-oriented
    artifact shares (sweep and topology journals, single-cell traces, the
    merged x-ray timeline, the causality log, the window stream and the
    chaos fault timeline).

    A stream is a header line [{"schema":S, <format fields in order>}]
    followed by one compact JSON record per line.  A format is reduced to
    its schema tag, its header fields and a record codec; the framing, the
    write-error discipline and the torn-tail rule live here and are stated
    once in docs/ROBUSTNESS.md ("Framed streams"). *)

val header : schema:string -> (string * Json.t) list -> Json.t
(** [{"schema":schema, fields...}], fields in the given order. *)

val header_fields : schema:string -> Json.t -> (string * Json.t) list option
(** The header's fields minus its tag, when [v] is an object whose
    ["schema"] field is the string [schema]. *)

val schema_of : path:string -> string option
(** The schema tag of the file's first line, when that line is a compact
    JSON object with a string ["schema"] field; [None] otherwise
    (unreadable file, pretty-printed document, no tag). *)

(** {1 Writing} *)

type writer
(** An output channel and the buffer its records are encoded through.
    Each writer owns its buffer and the module keeps none, so writers on
    different domains share nothing; one writer used from several
    domains needs its owner's lock, as the sweep journal takes. *)

val create : path:string -> schema:string -> (string * Json.t) list -> writer
(** Create or truncate [path] and write the header line. *)

val reopen : path:string -> writer
(** Open an existing stream for appending (its header is already there).
    A torn final line — the stream does not end in a newline — is cut off
    first, so a stream resumed after a crash mid-append loads again after
    the next crash or resume. *)

val write : writer -> Json.t -> unit
(** Append one record as a compact JSON line. *)

val write_line : writer -> string -> unit
(** Append an already-encoded compact record (no trailing newline). *)

val flush : writer -> unit

val close : writer -> unit
(** Flush and close.  A failed final flush raises [Sys_error] rather than
    leaving a silently short file. *)

val with_out : string -> (out_channel -> 'a) -> 'a
(** [with_out path f] creates or truncates [path], runs [f] on the
    channel and closes it checked: a failed final flush raises
    [Sys_error].  If [f] raises, the file is closed ignoring close errors
    and the exception propagates.  Every artifact writer, framed or not,
    closes this way. *)

val with_file :
  path:string ->
  schema:string ->
  (string * Json.t) list ->
  (writer -> 'a) ->
  'a
(** {!with_out} with the header line written first. *)

val write_file :
  path:string ->
  schema:string ->
  (string * Json.t) list ->
  ('r -> Json.t) ->
  'r list ->
  unit
(** A whole stream: the header, then one line per record. *)

(** {1 Reading} *)

val load :
  who:string ->
  schema:string ->
  header:((string * Json.t) list -> 'h option) ->
  record:(Json.t -> 'r option) ->
  ?check:('h -> 'r -> string option) ->
  path:string ->
  unit ->
  ('h * 'r list, Error.t) result
(** Read a stream back: [header] decodes the header's fields (tag
    removed), [record] each later line, in file order.  [check] names what
    a record contradicts in its header, if anything.

    The tail rule: an undecodable {e final} line is a torn append and is
    dropped; an undecodable line with lines after it is corruption and
    refused; a record [check] objects to is refused wherever it appears.
    Every refusal — unreadable file, missing or foreign header included —
    is an [Error] of kind [Bad_spec] under [who], with [path] and (for a
    record) [line] in its context. *)
