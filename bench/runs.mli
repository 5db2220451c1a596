(** Keyed job graph for the bench: enumerate every simulation up front,
    execute the distinct ones on the domain pool, look results up by key
    while rendering sequentially.  Keys double as the dedup unit — two
    sections that need the same run (same {!Wfs_runner.Spec.t}) pay for it
    once.

    Execution is crash-isolated ({!Wfs_runner.Pool.map_outcomes}): a job
    that raises loses only itself, and its typed error is returned in the
    failure list.  With [resume] set, completed results are checkpointed
    line-by-line to a {!Wfs_runner.Journal}, in job order whatever order
    the workers finish in, and a rerun over the same journal skips the
    completed keys — final tables are byte-identical to an uninterrupted
    sweep, and two runs of one sweep write identical journals. *)

type result =
  | Metrics of Wfs_core.Metrics.t
  | Mac of Wfs_mac.Mac_sim.result
  | Bounds of Wfs_bounds.Verify.report
  | Fairness of { windows : int; jain : float; gap : float }

type job = {
  key : string;  (** unique id; spec-backed jobs use [Spec.to_string] *)
  slots : int;  (** simulated slots, for engine-throughput accounting *)
  run : unit -> result;  (** must not print; seeds only from captured data *)
}

type opts = {
  jobs : int;  (** worker domains *)
  retries : int;  (** extra attempts per failed job (same RNG stream) *)
  max_slots : int option;
      (** deterministic watchdog: refuse any job declaring more slots *)
  invariants : bool;  (** run {!Wfs_core.Invariant} monitors in every job *)
  flight_recorder : int option;
      (** ring capacity: spec-backed jobs run with an N-event flight
          recorder whose last events ride along in a failed job's error
          context (see {!Wfs_runner.Exec.run_outcome}) *)
  resume : string option;
      (** journal path: created when absent, resumed when present
          ({!Wfs_runner.Journal.resume}) *)
  params : (string * Wfs_util.Json.t) list;
      (** sweep settings stamped into the journal header; a resumed journal
          must carry identical ones *)
}

val default_opts : jobs:int -> opts
(** No retries, no watchdog, no invariants, no journal. *)

type failure = { key : string; error : Wfs_util.Error.t }
type stats = { runs : int; slots : int; cached : int; failed : int }

exception Missing of string
(** Raised by the lookup function for a key that was submitted but whose
    job failed — the render phase catches it to skip just that section. *)

val checked_hooks :
  Wfs_core.Wireless_sched.instance -> Wfs_core.Simulator.hook list
(** The sweep-wide invariant switch ({!opts.invariants}) as a hook
    builder: [[Invariant.hook sched]] when the current {!exec} turned the
    monitors on, [[]] otherwise.  Job thunks built before [exec] call it
    at run time; custom jobs put its hooks first in their own list. *)

val flight_recorder_capacity : unit -> int option
(** The sweep-wide flight-recorder capacity ({!opts.flight_recorder}), as
    set by the current {!exec} — same contract as {!checked_hooks}. *)

val spec_job : Wfs_runner.Spec.t -> job
(** Job keyed by [Spec.to_string] that runs the spec through
    {!Wfs_runner.Exec.run_outcome} (with invariant monitors and the flight
    recorder when enabled); a typed failure is re-raised so the pool's
    crash isolation reports it. *)

val result_to_json : result -> Wfs_util.Json.t

val result_of_json : Wfs_util.Json.t -> result option
(** Bit-exact round-trip: [result_of_json (result_to_json r)] rebuilds a
    result whose rendered cells are byte-identical — the property journal
    resumption relies on. *)

val exec : opts:opts -> job list -> stats * (string -> result) * failure list
(** Dedup by key (first occurrence wins), subtract keys already in the
    resume journal, run the remaining jobs crash-isolated on the pool
    (journaling each result once every earlier job has finished), and
    return counts, a lookup function, and the per-job failures in
    submission order.  The lookup raises {!Missing} for a failed key and
    [Invalid_argument] for a key that was never submitted.
    @raise Wfs_util.Error.Error (kind [Bad_spec]) when the resume journal
    is corrupt, has the wrong schema, or was written for different sweep
    settings. *)

val metrics : (string -> result) -> string -> Wfs_core.Metrics.t
val mac : (string -> result) -> string -> Wfs_mac.Mac_sim.result
val bounds : (string -> result) -> string -> Wfs_bounds.Verify.report
(** Typed accessors over the lookup function; raise [Invalid_argument] on a
    key of the wrong result kind. *)
