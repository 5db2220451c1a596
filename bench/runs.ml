(* The bench's job graph: every measurement the report needs is enumerated
   up front as a keyed, self-contained thunk, executed once on the domain
   pool (duplicate keys — e.g. a Table-1 cell that a later ablation reuses —
   run a single time), and looked up by key during the sequential render
   phase.  Thunks must not print and must derive all randomness from their
   captured seed, so results are independent of worker count and completion
   order.

   Execution is crash-isolated: a job that raises loses only itself — its
   typed error lands in the failure list, its key stays absent from the
   lookup table, and {!Missing} lets the render phase skip just the
   sections that needed it.  With [resume] set, every completed result is
   also journaled, in job order, once the jobs before it have finished
   ({!Wfs_runner.Journal}), and a restarted sweep replays the journal
   instead of re-running those keys. *)

module Core = Wfs_core
module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Journal = Wfs_runner.Journal

type result =
  | Metrics of Core.Metrics.t
  | Mac of Wfs_mac.Mac_sim.result
  | Bounds of Wfs_bounds.Verify.report
  | Fairness of { windows : int; jain : float; gap : float }

type job = {
  key : string;  (* unique id; specs use Spec.to_string *)
  slots : int;  (* simulated slots, for engine-throughput accounting *)
  run : unit -> result;
}

type opts = {
  jobs : int;
  retries : int;
  max_slots : int option;
  invariants : bool;
  flight_recorder : int option;
  resume : string option;
  params : (string * Json.t) list;
      (* sweep settings stamped into the journal header; a resumed journal
         must carry the same ones, or its keys could silently alias runs
         made with different settings *)
}

let default_opts ~jobs =
  {
    jobs;
    retries = 0;
    max_slots = None;
    invariants = false;
    flight_recorder = None;
    resume = None;
    params = [];
  }

type failure = { key : string; error : Error.t }
type stats = { runs : int; slots : int; cached : int; failed : int }

exception Missing of string

(* Invariant checking and the flight recorder are per-sweep switches read
   by the job thunks at run time (they are built before [exec] knows the
   options). *)
let invariants_flag = ref false

let checked_hooks sched =
  if !invariants_flag then [ Core.Invariant.hook sched ] else []
let flight_recorder_flag = ref None
let flight_recorder_capacity () = !flight_recorder_flag

let spec_job spec =
  {
    key = Wfs_runner.Spec.to_string spec;
    slots = spec.Wfs_runner.Spec.horizon;
    run =
      (fun () ->
        (* run_outcome rather than run, so a dying job's error context
           carries the flight recorder's last events; re-raising keeps the
           pool's crash-isolation contract unchanged. *)
        match
          Wfs_runner.Exec.run_outcome
            ~hooks:(fun _ -> checked_hooks)
            ?flight_recorder:(flight_recorder_capacity ()) spec
        with
        | Ok m -> Metrics m
        | Error e -> Error.raise_ e);
  }

(* --- journal payloads --- *)

let result_to_json = function
  | Metrics m ->
      Json.Obj [ ("kind", Json.Str "metrics"); ("data", Core.Metrics.to_json m) ]
  | Mac r ->
      Json.Obj
        [ ("kind", Json.Str "mac"); ("data", Wfs_mac.Mac_sim.result_to_json r) ]
  | Bounds r ->
      Json.Obj
        [
          ("kind", Json.Str "bounds");
          ("data", Wfs_bounds.Verify.report_to_json r);
        ]
  | Fairness { windows; jain; gap } ->
      Json.Obj
        [
          ("kind", Json.Str "fairness");
          ("windows", Json.Int windows);
          ("jain", Json.of_float_ext jain);
          ("gap", Json.of_float_ext gap);
        ]

let result_of_json j =
  let ( let* ) = Option.bind in
  let* kind = Option.bind (Json.member "kind" j) Json.to_str in
  match kind with
  | "metrics" ->
      let* data = Json.member "data" j in
      Option.map (fun m -> Metrics m) (Core.Metrics.of_json data)
  | "mac" ->
      let* data = Json.member "data" j in
      Option.map (fun r -> Mac r) (Wfs_mac.Mac_sim.result_of_json data)
  | "bounds" ->
      let* data = Json.member "data" j in
      Option.map (fun r -> Bounds r) (Wfs_bounds.Verify.report_of_json data)
  | "fairness" ->
      let* windows = Option.bind (Json.member "windows" j) Json.to_int in
      let* jain = Option.bind (Json.member "jain" j) Json.to_float_ext in
      let* gap = Option.bind (Json.member "gap" j) Json.to_float_ext in
      Some (Fairness { windows; jain; gap })
  | _ -> None

let exec ~opts job_list =
  invariants_flag := opts.invariants;
  flight_recorder_flag := opts.flight_recorder;
  (* Dedup by key, keeping first occurrence order. *)
  let seen = Hashtbl.create 256 in
  let distinct =
    List.filter
      (fun (j : job) ->
        if Hashtbl.mem seen j.key then false
        else begin
          Hashtbl.add seen j.key ();
          true
        end)
      job_list
  in
  (* A journal replays into [cached]; an entry that does not decode is
     refused like a corrupt file, since resuming past it could resurrect
     results from another sweep. *)
  let cached = Hashtbl.create 256 in
  let replay path =
    List.iter (fun (key, v) ->
        match result_of_json v with
        | Some r -> Hashtbl.replace cached key r
        | None ->
            Error.bad_spec ~who:"Runs.exec" "unreadable journal entry"
              ~context:[ ("path", path); ("key", key) ])
  in
  let writer =
    Option.map
      (fun path ->
        snd (Journal.resume ~path ~params:opts.params (replay path)))
      opts.resume
  in
  let pending : job array =
    Array.of_list
      (List.filter (fun (j : job) -> not (Hashtbl.mem cached j.key)) distinct)
  in
  if Hashtbl.length cached = 0 then
    Printf.printf "running %d simulations on %d domain(s)...\n%!"
      (Array.length pending) (max 1 opts.jobs)
  else
    Printf.printf
      "running %d simulations on %d domain(s) (%d resumed from journal)...\n%!"
      (Array.length pending) (max 1 opts.jobs) (Hashtbl.length cached);
  (* Journal in job order, so the file's bytes do not depend on which
     worker finishes first: a completion that arrives ahead of an earlier
     job's is held until every job before it has reported, then the
     in-order prefix is appended.  A failed job appends nothing but still
     moves the prefix on. *)
  let notify =
    Option.map
      (fun w ->
        let held = Array.make (Array.length pending) None in
        let next = ref 0 in
        let rec flush () =
          if !next < Array.length held then
            match held.(!next) with
            | None -> ()
            | Some outcome ->
                (match outcome with
                | Ok r ->
                    Journal.append w ~key:pending.(!next).key
                      ~value:(result_to_json r)
                | Error _ -> ());
                held.(!next) <- None;
                incr next;
                flush ()
        in
        fun i outcome ->
          held.(i) <- Some outcome;
          flush ())
      writer
  in
  let outcomes =
    Wfs_runner.Pool.map_outcomes ~jobs:opts.jobs ~retries:opts.retries ?notify
      (fun (j : job) ->
        match opts.max_slots with
        | Some cap when j.slots > cap ->
            (* Deterministic watchdog: the slot loop is horizon-bounded, so
               a job's cost is declared up front and over-budget jobs are
               refused before they run. *)
            Error
              (Error.v Error.Sim_fault ~who:"Runs.exec" "slot budget exceeded"
                 ~context:
                   [
                     ("key", j.key);
                     ("slots", string_of_int j.slots);
                     ("max_slots", string_of_int cap);
                   ])
        | _ -> Ok (j.run ()))
      pending
  in
  Option.iter Journal.close writer;
  let table = Hashtbl.create 256 in
  Hashtbl.iter (fun k r -> Hashtbl.replace table k r) cached;
  let failures = ref [] in
  Array.iteri
    (fun i (j : job) ->
      match outcomes.(i) with
      | Ok r -> Hashtbl.replace table j.key r
      | Error error -> failures := { key = j.key; error } :: !failures)
    pending;
  let failures = List.rev !failures in
  let stats =
    {
      runs = Array.length pending;
      slots = Array.fold_left (fun acc (j : job) -> acc + j.slots) 0 pending;
      cached = Hashtbl.length cached;
      failed = List.length failures;
    }
  in
  let get key =
    match Hashtbl.find_opt table key with
    | Some r -> r
    | None ->
        if Hashtbl.mem seen key then raise (Missing key)
        else Error.invalidf "Runs.exec" "no job with key %S" key
  in
  (stats, get, failures)

let metrics get key =
  match get key with
  | Metrics m -> m
  | _ -> Error.invalidf "Runs.metrics" "job %S did not produce metrics" key

let mac get key =
  match get key with
  | Mac r -> r
  | _ -> Error.invalidf "Runs.mac" "job %S did not produce a MAC result" key

let bounds get key =
  match get key with
  | Bounds r -> r
  | _ ->
      Error.invalidf "Runs.bounds" "job %S did not produce a bounds report" key
