(** The [wfs-trace/1] per-slot time-series format.

    A trace is line-oriented: one JSON header line carrying the schema tag,
    flow count, sampling stride and free-form run parameters, then one
    compact JSON object per {e sampled} slot.  Optional per-scheduler
    quantities (virtual time, finish tags, credit balances, the global lag
    sum) are encoded by field {e presence} — a scheduler that exposes no
    virtual time produces no [vt] key, and absence must not be read as
    zero.  The format is a framed stream ({!Wfs_util.Jsonl};
    docs/ROBUSTNESS.md, "Framed streams"): writers ({!Sink}) append a line
    per sample and never hold the series in memory. *)

val schema : string
(** ["wfs-trace/1"] *)

type flow_sample = {
  queue : int;  (** queue depth at end of slot *)
  good : bool;  (** true channel state this slot *)
  tag : float option;  (** scheduler finish/service tag, if exposed *)
  credit : int option;  (** credit balance, if exposed *)
}

type sample = {
  slot : int;
  selected : int option;  (** flow transmitted, [None] on an idle slot *)
  virtual_time : float option;
  lag_sum : int option;  (** global lag sum, if exposed (CIF-Q) *)
  flows : flow_sample array;
}

type header = {
  n_flows : int;
  stride : int;  (** every [stride]-th slot is sampled *)
  params : (string * Wfs_util.Json.t) list;  (** free-form run metadata *)
}

val header :
  ?stride:int -> ?params:(string * Wfs_util.Json.t) list -> n_flows:int -> unit -> header
(** Defaults: stride 1, no params.
    @raise Wfs_util.Error.Error (kind [Bad_config]) when [n_flows < 1],
    [stride < 1], or a param reuses a reserved name ([schema] / [n_flows]
    / [stride]). *)

val header_fields : header -> (string * Wfs_util.Json.t) list
(** The header line's fields after its schema tag. *)

val header_to_json : header -> Wfs_util.Json.t
val header_of_json : Wfs_util.Json.t -> header option
val header_to_string : header -> string
(** The header line (compact JSON, no trailing newline). *)

val sample_to_json : sample -> Wfs_util.Json.t
val sample_of_json : Wfs_util.Json.t -> sample option
val sample_to_string : sample -> string
val sample_of_string : string -> sample option
(** [sample_of_string (sample_to_string s)] = [Some s'] with
    [sample_equal s s'] — qcheck-verified bit-exact round-trip (floats use
    the shortest decimal restoring the same bits). *)

val flow_equal : flow_sample -> flow_sample -> bool
val sample_equal : sample -> sample -> bool
(** Floats compare by total order, so [nan] round-trips as equal. *)

val header_equal : header -> header -> bool

type contents = { hdr : header; samples : sample list }

val load : path:string -> (contents, Wfs_util.Error.t) result
(** Parse a trace file; a sample whose flow count disagrees with the
    header is refused wherever it appears. *)
