(** Typed error taxonomy for the whole simulator.

    Every failure a sweep driver may need to report, classify or retry is
    one {!t}: a {!kind} saying {e what class} of failure it is, a [who]
    naming the raising function ("Wps.complete", "Spec.of_string"), a
    human-readable [what], and a [context] association list with the
    machine-readable details (slot number, flow id, paper section, ...).

    {b Raising convention.}  Library code raises through this module only
    — either the typed {!Error} exception via {!raise_} / the kind
    constructors, or a classic [Invalid_argument] via {!invalid} /
    {!invalidf} so that existing callers (and tests asserting exact
    message texts) keep working.  [wfs_lint] rule R6 enforces that no bare
    [invalid_arg] / [failwith] remains outside this module.

    {b Classifying convention} (used by {!of_exn} and the runner):
    - [Bad_spec] — the run description itself is wrong: unparsable spec
      string, unknown example number, unreadable scenario file, corrupt
      journal.  Retrying cannot help.
    - [Bad_config] — a structurally valid description with out-of-range
      parameters: negative horizon, unknown scheduler, weight 0.  This is
      what every [Invalid_argument] raised through {!invalid} maps to.
    - [Sim_fault] — the simulation itself misbehaved: an unexpected
      exception from a worker, or the deterministic slot-budget watchdog
      refusing a runaway job.
    - [Invariant_violation] — a runtime monitor caught the scheduler
      breaking one of the paper's own safety properties (see
      {!Wfs_core.Invariant}). *)

type kind = Bad_spec | Bad_config | Sim_fault | Invariant_violation

type t = {
  kind : kind;
  who : string;  (** raising function, "Module.function" *)
  what : string;  (** human-readable description *)
  context : (string * string) list;  (** machine-readable details *)
}

exception Error of t

val kind_to_string : kind -> string
(** ["bad-spec"], ["bad-config"], ["sim-fault"], ["invariant-violation"]. *)

val v : ?context:(string * string) list -> kind -> who:string -> string -> t
(** Build an error value without raising. *)

val bad_spec : ?context:(string * string) list -> who:string -> string -> 'a
val bad_config : ?context:(string * string) list -> who:string -> string -> 'a
val sim_fault : ?context:(string * string) list -> who:string -> string -> 'a

val invariant_violation :
  ?context:(string * string) list -> who:string -> string -> 'a
(** Each raises {!Error} with the corresponding kind. *)

val raise_ : t -> 'a
(** Raise an already-built error. *)

val add_context : (string * string) list -> t -> t
(** Append key/value pairs to the error's context (later wins on render). *)

val to_string : t -> string
(** One line: ["[kind] who: what (k=v, ...)"]. *)

val pp : Format.formatter -> t -> unit

val of_exn : ?who:string -> ?backtrace:Printexc.raw_backtrace -> exn -> t
(** Classify an arbitrary exception: {!Error} payloads pass through
    (gaining [who]/backtrace context), [Invalid_argument] becomes
    [Bad_config], [Sys_error] becomes [Bad_spec], anything else becomes
    [Sim_fault] carrying the exception text and (when given) the raw
    backtrace in the context. *)

(** {1 Legacy [Invalid_argument] boundary}

    The pre-existing public error convention of the libraries is
    [Invalid_argument "Who: message"] with exact, test-asserted wording.
    These two helpers are the single formatting point for that convention
    — same wording everywhere, one place to change it. *)

val invalid : string -> string -> 'a
(** [invalid who msg] raises [Invalid_argument (who ^ ": " ^ msg)]. *)

val invalidf : string -> ('a, unit, string, 'b) format4 -> 'a
(** [invalidf who fmt ...] — {!invalid} with a format string. *)

(** {1 Domain-specific shared wordings}

    One helper per message that several modules must word identically
    (the wireline create/enqueue paths used to drift apart). *)

val invalid_flow_ids : string -> 'a
(** [invalid_flow_ids who] = [invalid who "flow ids must be 0..n-1"]. *)

val unknown_flow : string -> 'a
(** [unknown_flow who] = [invalid who "unknown flow"]. *)

val empty_queue : string -> 'a
(** [empty_queue who] = [invalid who "empty queue"] — the wireless
    outcome-callback convention (see {!Wfs_core.Wireless_sched}). *)
