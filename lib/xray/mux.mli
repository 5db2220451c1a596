(** The [wfs-xray-trace/1] per-cell trace multiplexer.

    Topology tracing without the [--jobs 1] restriction: during the
    parallel phase of an epoch each cell's probe appends cell-tagged
    samples to that cell's OWN part file (no cross-domain ordering exists
    to get wrong), rosters are written only from the sequential barrier
    (install / rebuild), and {!finish} reconstructs the deterministic
    global timeline by a positional merge on (slot, cell) — smallest slot
    first, ties broken by cell id, within-cell order preserved.  The merge
    is byte-identical across [--jobs] because the parts themselves are:
    every cell's stream depends only on that cell's deterministic state,
    and a failed (chaos-injected, retried) cell epoch writes no samples —
    injection happens before the cell advances.

    The merged stream is a framed stream ({!Wfs_util.Jsonl};
    docs/ROBUSTNESS.md, "Framed streams") whose header carries [cells],
    [n_flows], [stride] and free-form params, with one entry per line.
    Sample lines reuse the wfs-trace/1 sample codec
    bit-exactly, with a [cell] field prepended; roster lines
    [{"cell":c,"slot":s,"roster":[gids]}] map each cell's local flow
    indices to global ids as membership changes across handoffs. *)

val schema : string
(** ["wfs-xray-trace/1"] *)

type entry =
  | Roster of { cell : int; slot : int; gids : int array }
      (** [gids.(local)] is the global id of the cell's [local]-th flow
          from [slot] until the cell's next roster *)
  | Sample of { cell : int; sample : Wfs_obs.Trace.sample }
      (** one sampled slot of the cell's session; flow indices are
          cell-local (resolve through the latest roster) *)

val entry_to_json : entry -> Wfs_util.Json.t
val entry_of_json : Wfs_util.Json.t -> entry option
val entry_to_string : entry -> string

val entry_of_string : string -> entry option
(** Bit-exact round-trip of {!entry_to_string} (qcheck-verified). *)

val entry_equal : entry -> entry -> bool
val entry_slot : entry -> int
val entry_cell : entry -> int

(** {1 In-run writer} *)

type t

val create :
  ?stride:int ->
  ?params:(string * Wfs_util.Json.t) list ->
  cells:int ->
  part_base:string ->
  unit ->
  t
(** Open one part file per cell at ["<part_base>.part<cell>"].  Defaults:
    stride 1, no params.
    @raise Wfs_util.Error.Error (kind [Bad_config]) when [cells < 1],
    [stride < 1], or a param reuses a reserved name. *)

val note_roster : t -> cell:int -> slot:int -> gids:int array -> unit
(** Record the cell's membership from [slot] on.  Must only be called from
    sequential code (create / epoch barrier) — it writes to the cell's
    part, and the merge relies on rosters preceding that cell's samples. *)

val probe :
  t ->
  cell:int ->
  n_flows:int ->
  Wfs_core.Wireless_sched.instance ->
  Wfs_core.Simulator.hook
(** An end-of-slot hook sampling every [stride]-th slot into the cell's
    part, through the sample builder [Wfs_obs.Probe.create] uses
    ([Wfs_obs.Probe.sampler]: queue depths, channel states, finish tags,
    credits, virtual time, lag sum).  [n_flows] is
    the CELL's current membership size. *)

val finish : t -> n_flows:int -> ?jsonl:string -> ?csv:string -> unit -> unit
(** Close the parts, merge them into the requested outputs, delete the
    parts.  [n_flows] is the topology-wide flow count (CSV width; roster
    gids must fit).  The CSV timeline has one row per sample — columns
    [slot,cell,selected,virtual_time,lag_sum] then [q/good/tag/credit] per
    GLOBAL flow id, empty for flows not resident in the sample's cell
    (presence encoding, like the single-cell CSV sink); [selected] is
    translated to a global id.  A failed final flush of either output
    raises [Sys_error].  Idempotence guard: a finished (or aborted) mux
    refuses further writes. *)

val abort : t -> unit
(** Close and delete the parts without merging (failure path). *)

(** {1 Reading a merged stream} *)

type contents = {
  cells : int;
  n_flows : int;
  stride : int;
  params : (string * Wfs_util.Json.t) list;
  entries : entry list;
}

val load : path:string -> (contents, Wfs_util.Error.t) result
(** An entry whose cell lies outside the header's [cells] is refused
    wherever it appears. *)
