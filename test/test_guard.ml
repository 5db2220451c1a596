(* Fault-injection suite for the wfs_guard robustness layer: crash
   isolation in the pool, typed spec errors, journal checkpoint/resume
   (including deliberate truncation and corruption), the deterministic
   slot-budget watchdog, and the runtime invariant monitors catching a
   scheduler that breaks the paper's own safety properties. *)

module Core = Wfs_core
module Error = Wfs_util.Error
module Json = Wfs_util.Json
module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Pool = Wfs_runner.Pool
module Journal = Wfs_runner.Journal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_file ?(suffix = ".journal") f =
  let path = Filename.temp_file "wfs_guard" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- crash isolation --- *)

exception Sabotage of int

let test_crash_loses_only_that_job () =
  (* One worker raises; every other item must still produce its result, and
     the crashed item must carry a typed Sim_fault, not abort the sweep. *)
  let f i = if i = 5 then raise (Sabotage i) else Ok (i * i) in
  List.iter
    (fun jobs ->
      let outcomes = Pool.map_outcomes ~jobs f (Array.init 12 (fun i -> i)) in
      Array.iteri
        (fun i out ->
          match out with
          | Ok v when i <> 5 -> check_int "surviving job result" (i * i) v
          | Error e when i = 5 ->
              check_bool "crash classified as sim-fault" true
                (e.Error.kind = Error.Sim_fault)
          | Ok _ -> Alcotest.failf "job %d should have failed" i
          | Error e ->
              Alcotest.failf "job %d unexpectedly failed: %s" i
                (Error.to_string e))
        outcomes)
    [ 1; 4 ]

let test_typed_errors_pass_through () =
  let err = Error.v Error.Bad_config ~who:"test" "synthetic" in
  let f i = if i = 1 then Error err else Ok i in
  let outcomes = Pool.map_outcomes ~jobs:2 f [| 0; 1; 2 |] in
  match outcomes.(1) with
  | Error e ->
      check_bool "returned error untouched" true (e.Error.kind = Error.Bad_config);
      check_str "who preserved" "test" e.Error.who
  | Ok _ -> Alcotest.fail "Error outcome must pass through"

let test_retries_rerun_failed_jobs () =
  (* First attempt of item 3 fails, second succeeds: with one retry the
     sweep recovers; without retries the failure is accepted and stamped
     with the attempt count. *)
  let attempts = Atomic.make 0 in
  let flaky i =
    if i = 3 && Atomic.fetch_and_add attempts 1 = 0 then failwith "transient"
    else Ok i
  in
  let recovered =
    Pool.map_outcomes ~jobs:1 ~retries:1 flaky (Array.init 5 (fun i -> i))
  in
  check_bool "retry recovered the job" true (recovered.(3) = Ok 3);
  let permanent i = if i = 0 then failwith "always" else Ok i in
  let out = Pool.map_outcomes ~jobs:1 ~retries:2 permanent [| 0; 1 |] in
  (match out.(0) with
  | Error e ->
      check_str "attempts recorded" "3" (List.assoc "attempts" e.Error.context)
  | Ok _ -> Alcotest.fail "permanent failure must remain an error");
  match (Pool.map_outcomes ~jobs:1 permanent [| 0 |]).(0) with
  | Error e ->
      check_bool "no attempts context without retries" true
        (not (List.mem_assoc "attempts" e.Error.context))
  | Ok _ -> Alcotest.fail "permanent failure must remain an error"

let test_notify_fires_once_per_item () =
  let seen = Array.make 6 0 in
  let mutex = Mutex.create () in
  let notify i _out =
    Mutex.lock mutex;
    seen.(i) <- seen.(i) + 1;
    Mutex.unlock mutex
  in
  let f i = if i = 2 then failwith "boom" else Ok i in
  ignore (Pool.map_outcomes ~jobs:3 ~notify f (Array.init 6 (fun i -> i)));
  Array.iteri (fun i n -> check_int (Printf.sprintf "item %d notified" i) 1 n) seen

(* --- typed spec errors --- *)

let test_spec_parse_typed () =
  (match Spec.parse "example:1 | WPS | seed=1 | horizon=100" with
  | Ok sp -> check_int "parsed horizon" 100 sp.Spec.horizon
  | Error e -> Alcotest.failf "valid spec rejected: %s" (Error.to_string e));
  match Spec.parse "exa mple:9 ||| nonsense" with
  | Ok _ -> Alcotest.fail "malformed spec accepted"
  | Error e ->
      check_bool "malformed spec is bad-spec" true (e.Error.kind = Error.Bad_spec);
      check_str "spec echoed in context" "exa mple:9 ||| nonsense"
        (List.assoc "spec" e.Error.context)

let test_run_outcome_classifies () =
  let spec = Spec.make ~seed:5 ~horizon:500 ~sched:"SwapA-P" (Spec.example 1) in
  (* Healthy run: Ok, identical to the raising API. *)
  (match Exec.run_outcome spec with
  | Ok m ->
      check_bool "outcome metrics match Exec.run" true
        (Core.Metrics.to_json m = Core.Metrics.to_json (Exec.run spec))
  | Error e -> Alcotest.failf "healthy run failed: %s" (Error.to_string e));
  (* Deterministic watchdog: refused before running, typed Sim_fault. *)
  (match Exec.run_outcome ~max_slots:100 spec with
  | Ok _ -> Alcotest.fail "watchdog must refuse a 500-slot job capped at 100"
  | Error e ->
      check_bool "watchdog is sim-fault" true (e.Error.kind = Error.Sim_fault);
      check_str "cap recorded" "100" (List.assoc "max_slots" e.Error.context));
  (* Malformed scenario file: parse errors classify as Bad_spec. *)
  with_temp_file ~suffix:".scenario" (fun path ->
      let oc = open_out path in
      output_string oc "horizon 100\nflow nonsense=1\n";
      close_out oc;
      let bad = Spec.make ~sched:"SwapA-P" (Spec.file path) in
      match Exec.run_outcome bad with
      | Ok _ -> Alcotest.fail "malformed scenario accepted"
      | Error e ->
          check_bool "parse error is bad-spec" true
            (e.Error.kind = Error.Bad_spec))

(* A run spec naming a malformed scenario file, run the way the CLIs run
   specs (the pool's exception capture, not [run_outcome]): the failure is
   the file's own typed error with its line, not a worker crash. *)
let test_file_spec_bad_scenario () =
  with_temp_file ~suffix:".scenario" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "horizon 100\nflow source=cbr:2 channel=gx:1\n");
      let spec =
        Spec.of_string_exn
          (Printf.sprintf "file:%s | SwapA-P | seed=1 | horizon=100" path)
      in
      match Pool.map_outcomes ~jobs:1 (fun sp -> Ok (Exec.run sp)) [| spec |] with
      | [| Error e |] ->
          check_bool "malformed file is bad-spec" true
            (e.Error.kind = Error.Bad_spec);
          check_str "line recorded" "2" (List.assoc "line" e.Error.context)
      | _ -> Alcotest.fail "malformed scenario accepted")

(* --- journal checkpoint/resume --- *)

let params = [ ("horizon", Json.Int 1000); ("seed", Json.Int 7) ]

(* The resume rule: a missing journal is created, one written with the same
   settings (in any key order) is reopened for appending, and one written
   for different settings is refused as a Bad_spec and left unchanged. *)
let check_resume_rule ~create ~resume ~append ~close =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = create path in
      append w;
      close w;
      let w = resume path (List.rev params) in
      append w;
      close w;
      let bytes () = In_channel.with_open_bin path In_channel.input_all in
      let before = bytes () in
      (match resume path [ ("horizon", Json.Int 1000); ("seed", Json.Int 8) ] with
      | _ -> Alcotest.fail "journal of different settings accepted"
      | exception Error.Error { kind = Error.Bad_spec; who; context; _ } ->
          check_str "refused by the shared rule" "Journal.resume" who;
          check_bool "names the path" true
            (List.assoc_opt "path" context = Some path));
      check_str "refused journal untouched" before (bytes ()))

let test_journal_resume_rule () =
  check_resume_rule
    ~create:(fun path -> snd (Journal.resume ~path ~params List.length))
    ~resume:(fun path params ->
      let n, w = Journal.resume ~path ~params List.length in
      check_int "entries replayed" 1 n;
      w)
    ~append:(fun w -> Journal.append w ~key:"a" ~value:(Json.Int 1))
    ~close:Journal.close

let test_topo_journal_resume_rule () =
  let module TJ = Wfs_topo.Topo_journal in
  check_resume_rule
    ~create:(fun path -> snd (TJ.resume ~path ~params))
    ~resume:(fun path params ->
      let c, w = TJ.resume ~path ~params in
      check_bool "snapshot replayed" true
        (TJ.find_snapshot c ~spec:"s" ~slot:100 = Some (Json.Int 1));
      w)
    ~append:(fun w -> TJ.append_snapshot w ~spec:"s" ~slot:100 (Json.Int 1))
    ~close:TJ.close

let test_journal_roundtrip () =
  with_temp_file (fun path ->
      let w = Journal.create ~path ~params () in
      Journal.append w ~key:"a" ~value:(Json.Int 1);
      Journal.append w ~key:"b" ~value:(Json.Str "two");
      Journal.close w;
      let w = Journal.reopen ~path in
      Journal.append w ~key:"c" ~value:(Json.Arr [ Json.Bool true ]);
      Journal.close w;
      match Journal.load ~path () with
      | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e)
      | Ok { params = p; entries } ->
          check_bool "params survive" true (p = params);
          check_int "three entries" 3 (List.length entries);
          check_bool "entries in file order" true
            (List.map fst entries = [ "a"; "b"; "c" ]))

let test_journal_truncated_tail_dropped () =
  with_temp_file (fun path ->
      let w = Journal.create ~path ~params () in
      Journal.append w ~key:"a" ~value:(Json.Int 1);
      Journal.append w ~key:"b" ~value:(Json.Int 2);
      Journal.close w;
      (* Simulate a crash mid-append: an unterminated, unparsable last line. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"key\":\"c\",\"val";
      close_out oc;
      match Journal.load ~path () with
      | Error e -> Alcotest.failf "truncated tail must load: %s" (Error.to_string e)
      | Ok { entries; _ } ->
          check_bool "only the torn line is lost" true
            (List.map fst entries = [ "a"; "b" ]))

let test_journal_mid_file_corruption_rejected () =
  with_temp_file (fun path ->
      let w = Journal.create ~path ~params () in
      Journal.append w ~key:"a" ~value:(Json.Int 1);
      Journal.close w;
      (* Corruption before the final line is not an interrupted append —
         refusing beats resurrecting stale results. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage line\n{\"key\":\"b\",\"value\":2}\n";
      close_out oc;
      match Journal.load ~path () with
      | Ok _ -> Alcotest.fail "mid-file corruption accepted"
      | Error e ->
          check_bool "corruption is bad-spec" true (e.Error.kind = Error.Bad_spec))

let guard_specs () =
  List.map
    (fun sched -> Spec.make ~seed:11 ~horizon:2_000 ~sched (Spec.example 1))
    [ "WRR-P"; "SwapA-P"; "IWFQ-P"; "CIF-Q-P" ]

let render_results specs results =
  (* Stand-in for the bench's table cells: the serialized metrics, which
     byte-identical resumption must reproduce exactly. *)
  List.map2
    (fun sp m ->
      Spec.to_string sp ^ " => " ^ Json.to_string ~pretty:false (Core.Metrics.to_json m))
    specs results

let test_resume_is_byte_identical () =
  (* Uninterrupted sweep vs: run two jobs, journal them, "crash", then
     resume — replaying journaled results and running only the rest.  The
     rendered output must match byte for byte. *)
  let specs = guard_specs () in
  let run sp = Exec.run sp in
  let full = render_results specs (List.map run specs) in
  with_temp_file (fun path ->
      let w = Journal.create ~path ~params () in
      List.iteri
        (fun i sp ->
          if i < 2 then
            Journal.append w ~key:(Spec.to_string sp)
              ~value:(Core.Metrics.to_json (run sp)))
        specs;
      Journal.close w;
      (* resume *)
      match Journal.load ~path () with
      | Error e -> Alcotest.failf "resume load failed: %s" (Error.to_string e)
      | Ok { entries; _ } ->
          let cached = Hashtbl.create 8 in
          List.iter (fun (k, v) -> Hashtbl.replace cached k v) entries;
          check_int "two jobs resumed" 2 (Hashtbl.length cached);
          let resumed =
            List.map
              (fun sp ->
                match Hashtbl.find_opt cached (Spec.to_string sp) with
                | Some v -> Option.get (Core.Metrics.of_json v)
                | None -> run sp)
              specs
          in
          List.iter2 (check_str "resumed cell identical") full
            (render_results specs resumed))

(* --- invariant monitors --- *)

(* A hand-built scheduler instance whose probe reports whatever the test
   wants — the monitor must catch it lying about the paper's properties. *)
let fake_sched ?(queue_length = fun _ -> 0) probe =
  {
    Core.Wireless_sched.name = "Evil";
    enqueue = (fun ~slot:_ _ -> ());
    arrive = (fun ~slot:_ ~flow:_ ~seq:_ ~count:_ -> ());
    select = (fun ~slot:_ ~predicted_good:_ -> None);
    packets = (let empty = Wfs_traffic.Packet.Ring.create () in fun _ -> empty);
    complete = (fun ~flow:_ -> ());
    fail = (fun ~flow:_ -> ());
    drop_head = (fun ~flow:_ -> ());
    queue_length;
    on_slot_end = (fun ~slot:_ -> ());
    probe;
    handoff = None;
    quiescent = None;
  }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_violation ~substring f =
  match f () with
  | () -> Alcotest.failf "expected an invariant violation (%s)" substring
  | exception Error.Error e ->
      check_bool "kind is invariant-violation" true
        (e.Error.kind = Error.Invariant_violation);
      check_bool
        (Printf.sprintf "paper section recorded (%s)" substring)
        true
        (match List.assoc_opt "paper" e.Error.context with
        | Some s -> contains ~sub:substring s
        | None -> false)

let check_one ~sched ?(n_flows = 1) ?(selected = None) mon =
  Core.Invariant.check mon ~slot:0 ~sched ~n_flows
    ~predicted_good:(fun _ -> true)
    ~selected

let test_invariant_credit_bounds () =
  (* Poisoned credit: balance 9 against limits [−4, 4] — the Section 7
     bounded credit/debit accounting the WPS variants must respect. *)
  let probe =
    { Core.Wireless_sched.no_probe with credit = Some (fun _ -> (9, 4, 4)) }
  in
  expect_violation ~substring:"Section 7" (fun () ->
      check_one ~sched:(fake_sched probe) (Core.Invariant.create ()))

let test_invariant_virtual_time () =
  let vt = ref 5.0 in
  let probe =
    { Core.Wireless_sched.no_probe with virtual_time = Some (fun () -> !vt) }
  in
  let sched = fake_sched probe in
  let mon = Core.Invariant.create () in
  check_one ~sched mon;
  vt := 3.0;  (* regression *)
  expect_violation ~substring:"Section 4.1" (fun () -> check_one ~sched mon);
  let poisoned =
    { Core.Wireless_sched.no_probe with virtual_time = Some (fun () -> Float.nan) }
  in
  expect_violation ~substring:"Section 4.1" (fun () ->
      check_one ~sched:(fake_sched poisoned) (Core.Invariant.create ()))

let test_invariant_finish_tags () =
  let probe =
    { Core.Wireless_sched.no_probe with finish_tag = Some (fun _ -> Float.nan) }
  in
  expect_violation ~substring:"Section 4.1" (fun () ->
      check_one ~sched:(fake_sched probe) (Core.Invariant.create ()));
  (* infinity is fine for an idle flow but not for a backlogged one *)
  let inf = { Core.Wireless_sched.no_probe with finish_tag = Some (fun _ -> infinity) } in
  check_one ~sched:(fake_sched inf) (Core.Invariant.create ());
  expect_violation ~substring:"Section 4.1" (fun () ->
      check_one
        ~sched:(fake_sched ~queue_length:(fun _ -> 3) inf)
        (Core.Invariant.create ()))

let test_invariant_lag_sum () =
  let sum = ref 0 in
  let probe =
    { Core.Wireless_sched.no_probe with lag_sum = Some (fun () -> !sum) }
  in
  let sched = fake_sched probe in
  let mon = Core.Invariant.create () in
  check_one ~sched mon;
  sum := 1;  (* +1: a failed transmission returned the debit — legal *)
  check_one ~sched mon;
  sum := 4;  (* +3 in one slot: conservation broken *)
  expect_violation ~substring:"Section 5" (fun () -> check_one ~sched mon)

let test_invariant_work_conservation () =
  let probe = { Core.Wireless_sched.no_probe with work_conserving = true } in
  let idle_with_backlog = fake_sched ~queue_length:(fun _ -> 2) probe in
  expect_violation ~substring:"Sections 4-5" (fun () ->
      check_one ~sched:idle_with_backlog (Core.Invariant.create ()));
  (* Idling with nothing serviceable, or while transmitting, is fine. *)
  check_one ~sched:(fake_sched probe) (Core.Invariant.create ());
  check_one ~sched:idle_with_backlog ~selected:(Some 0) (Core.Invariant.create ())

let test_invariants_clean_on_real_schedulers () =
  (* The real schedulers must pass their own monitors, and metrics with
     checks on must be byte-identical to checks off. *)
  List.iter
    (fun sp ->
      let off = Core.Metrics.to_json (Exec.run sp) in
      let on =
        Core.Metrics.to_json
          (Exec.run ~hooks:(fun _ sched -> [ Core.Invariant.hook sched ]) sp)
      in
      check_str
        (Printf.sprintf "%s identical under monitors" sp.Spec.sched)
        (Json.to_string ~pretty:false off)
        (Json.to_string ~pretty:false on))
    (guard_specs ())

let test_invariants_do_not_perturb_snoop () =
  (* The stateful Periodic_snoop predictor is the one place an extra
     prediction query could shift behavior; the monitor goes through
     Predictor.peek precisely so it cannot.  Checked and unchecked runs
     must stay byte-identical. *)
  let run invariants =
    let setups = Core.Presets.example1 ~sum:0.1 ~seed:17 () in
    let sched =
      Core.Presets.(scheduler Swapa (flows_of setups))
    in
    let m =
      Core.Sim_config.v ~horizon:3_000 setups
      |> Core.Sim_config.with_predictor (Wfs_channel.Predictor.Periodic_snoop 4)
      |> (if invariants then Core.Sim_config.with_hook (Core.Invariant.hook sched)
          else Fun.id)
      |> Core.Sim_config.run sched
    in
    Json.to_string ~pretty:false (Core.Metrics.to_json m)
  in
  check_str "Periodic_snoop identical under monitors" (run false) (run true)

(* --- chaos fault injection: taxonomy, classification, retry --- *)

module Chaos = Wfs_chaos.Chaos

let all_fault_kinds =
  [
    Chaos.Cell_crash { cell = 3 };
    Chaos.Cell_recover { cell = 3 };
    Chaos.Handoff_lost { flow = 7; src = 1; dst = 2 };
    Chaos.Handoff_corrupt { flow = 7; src = 1; dst = 2 };
    Chaos.Handoff_blocked { flow = 7; src = 1; dst = 2 };
    Chaos.Blackout { cell = 0; until = 450 };
    Chaos.Worker_fault { cell = 2; persistent = true };
    Chaos.Worker_fault { cell = 2; persistent = false };
  ]

let test_chaos_event_roundtrip () =
  (* Every fault kind survives the JSON round-trip the --fault-timeline
     artifact and the flight-recorder attachments depend on. *)
  List.iteri
    (fun i fault ->
      let ev = { Chaos.slot = 100 * (i + 1); fault } in
      match Chaos.event_of_json (Chaos.event_to_json ev) with
      | None ->
          Alcotest.failf "event %S did not parse back"
            (Chaos.fault_to_string fault)
      | Some ev' ->
          check_bool (Chaos.fault_to_string fault) true
            (Chaos.event_equal ev ev'))
    all_fault_kinds;
  check_bool "kinds are distinguishable" true
    (not
       (Chaos.event_equal
          { Chaos.slot = 1; fault = Chaos.Cell_crash { cell = 0 } }
          { Chaos.slot = 1; fault = Chaos.Cell_recover { cell = 0 } }))

let test_chaos_inject_semantics () =
  (* Transient: armed once, consumed by the raise — the retry of the same
     clean-state thunk runs clear. *)
  let eng =
    Chaos.create ~seed:7 ~cells:2 (Spec.faults ~exn:1.0 ~persist:0. ())
  in
  Chaos.arm_worker_faults eng ~slot:100;
  (match Chaos.inject eng ~cell:0 with
  | () -> Alcotest.fail "armed transient fault must raise"
  | exception Error.Error e ->
      check_bool "typed sim-fault" true (e.Error.kind = Error.Sim_fault);
      check_bool "classified as injected" true (Chaos.injected_fault e);
      check_bool "transient is retryable" true (Chaos.retryable e));
  Chaos.inject eng ~cell:0;
  (* Persistent: stays armed, fails every retry, not retryable. *)
  let eng =
    Chaos.create ~seed:7 ~cells:2 (Spec.faults ~exn:1.0 ~persist:1.0 ())
  in
  Chaos.arm_worker_faults eng ~slot:100;
  (match Chaos.inject eng ~cell:1 with
  | () -> Alcotest.fail "armed persistent fault must raise"
  | exception Error.Error e ->
      check_bool "persistent is injected" true (Chaos.injected_fault e);
      check_bool "persistent is not retryable" true (not (Chaos.retryable e)));
  (match Chaos.inject eng ~cell:1 with
  | () -> Alcotest.fail "persistent fault must stay armed"
  | exception Error.Error _ -> ());
  (* A real worker error is neither retried nor budget-accountable. *)
  let real = Error.v Error.Sim_fault ~who:"worker" "oops" in
  check_bool "real errors are not injected faults" true
    (not (Chaos.injected_fault real));
  check_bool "real errors are not retryable" true (not (Chaos.retryable real))

let test_chaos_pool_retry () =
  (* End to end through the pool: transient faults recover under
     retry_if; persistent ones come back as classified failures. *)
  let arm persist =
    let eng =
      Chaos.create ~seed:3 ~cells:4 (Spec.faults ~exn:1.0 ~persist ())
    in
    Chaos.arm_worker_faults eng ~slot:100;
    eng
  in
  let eng = arm 0. in
  let out =
    Pool.map_outcomes ~jobs:2 ~retries:1 ~retry_if:Chaos.retryable
      (fun c ->
        Chaos.inject eng ~cell:c;
        Ok c)
      [| 0; 1; 2; 3 |]
  in
  Array.iteri
    (fun i o ->
      check_bool (Printf.sprintf "cell %d recovered" i) true (o = Ok i))
    out;
  let eng = arm 1.0 in
  let out =
    Pool.map_outcomes ~jobs:2 ~retries:1 ~retry_if:Chaos.retryable
      (fun c ->
        Chaos.inject eng ~cell:c;
        Ok c)
      [| 0; 1; 2; 3 |]
  in
  Array.iter
    (function
      | Error e ->
          check_bool "persistent failure classified" true
            (Chaos.injected_fault e)
      | Ok _ -> Alcotest.fail "persistent fault must fail its retries")
    out

let test_chaos_verdicts () =
  (* Certain-rate plans force each transit outcome deterministically. *)
  let eng = Chaos.create ~seed:1 ~cells:3 (Spec.faults ~lose:1.0 ()) in
  check_bool "certain loss" true
    (Chaos.handoff_verdict eng ~slot:100 ~flow:0 ~src:0 ~dst:1 = Chaos.Lost);
  let eng = Chaos.create ~seed:1 ~cells:3 (Spec.faults ~corrupt:1.0 ()) in
  check_bool "certain corruption" true
    (Chaos.handoff_verdict eng ~slot:100 ~flow:0 ~src:0 ~dst:1 = Chaos.Corrupt);
  let eng = Chaos.create ~seed:1 ~cells:3 (Spec.faults ()) in
  check_bool "inert plan delivers" true
    (Chaos.handoff_verdict eng ~slot:100 ~flow:0 ~src:0 ~dst:1 = Chaos.Deliver);
  (* Crash every cell: handoffs block, no re-home target remains. *)
  let eng = Chaos.create ~seed:1 ~cells:2 (Spec.faults ~crash:1.0 ()) in
  check_bool "both cells crash" true
    (Chaos.draw_crashes eng ~slot:100 = [ 0; 1 ]);
  check_int "down count" 2 (Chaos.down_count eng);
  check_bool "down destination blocks" true
    (Chaos.handoff_verdict eng ~slot:100 ~flow:0 ~src:0 ~dst:1 = Chaos.Blocked);
  check_bool "no re-home target when all cells are down" true
    (Chaos.rehome_target eng = None);
  check_int "timeline recorded the faults" 3
    (List.length (Chaos.timeline eng))

let test_chaos_mangle_digest () =
  let open Wfs_core.Wireless_sched in
  List.iter
    (fun c ->
      check_bool "mangling changes the digest" true
        (Chaos.carry_digest (Chaos.mangle_carry c) <> Chaos.carry_digest c))
    [ carry_zero; { lag = 2.5; credit = -3 }; { lag = -7.25; credit = 4 } ]

(* --- parser fuzzing: typed errors, never an escaped exception --- *)

let fuzz_spec_never_raises =
  QCheck.Test.make ~count:500 ~name:"Spec.of_string never raises"
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      match Spec.of_string s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let fuzz_spec_parse_never_raises =
  QCheck.Test.make ~count:500 ~name:"Spec.parse never raises"
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      match Spec.parse s with Ok _ | Error _ -> true | exception _ -> false)

let fuzz_json_never_raises =
  QCheck.Test.make ~count:500 ~name:"Json.of_string never raises"
    QCheck.(string_of_size Gen.(0 -- 120))
    (fun s ->
      match Json.of_string s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let fuzz_json_mutated_documents =
  (* Start from a well-formed document and flip one byte: parsing must
     still return a result, never raise. *)
  QCheck.Test.make ~count:300 ~name:"Json.of_string survives mutation"
    QCheck.(pair (int_bound 200) (int_bound 255))
    (fun (pos, byte) ->
      let doc =
        Json.to_string ~pretty:false
          (Json.Obj
             [
               ("key", Json.Str "value");
               ("xs", Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Null ]);
             ])
      in
      let b = Bytes.of_string doc in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      match Json.of_string (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* Scenario text assembled from directive and flow lines whose values are
   drawn from in-range and out-of-range choices (a weight of 0, a
   probability of 2, a negative limit or horizon, a snoop period of 0), so
   most cases get past the syntax and reach a range check.  Every case must
   fail as a [Bad_spec] that names its line, or parse into a scenario whose
   horizon a run accepts.  A predictor line never parses: the scheduler's
   registry name fixes its channel knowledge, so the line is refused on
   its own line number. *)
let gen_scenario =
  let open QCheck.Gen in
  (* In range three times in four, so whole files often parse. *)
  let values ok bad = frequency [ (3, oneofl ok); (1, oneofl bad) ] in
  let int = values [ "1"; "3" ] [ "0"; "-1" ] in
  let num = values [ "1"; "0.5"; "0.1" ] [ "0"; "-1"; "2"; "nan"; "x" ] in
  let pair a b = map2 (fun a b -> a ^ "," ^ b) a b in
  let spec kinds = oneof (List.map (fun (k, v) -> map (( ^ ) k) v) kinds) in
  let attr key v = opt (map (( ^ ) (key ^ "=")) v) in
  let flow =
    map
      (fun attrs -> String.concat " " ("flow" :: List.filter_map Fun.id attrs))
      (flatten_l
         [
           attr "weight" num;
           attr "drop"
             (spec
                [
                  ("retx:", int); ("delay:", int); ("retx-delay:", pair int int);
                  ("none", return "");
                ]);
           attr "buffer" int;
           map Option.some
             (spec
                [
                  ("source=cbr:", num); ("source=poisson:", num);
                  ("source=mmpp:", num);
                  ("source=onoff:", pair num num);
                  ("source=pareto:", pair num num);
                ]);
           map Option.some
             (spec
                [
                  ("channel=ge:", pair num num); ("channel=bernoulli:", num);
                  ("channel=badburst:", pair int int);
                  ("channel=good", return "");
                ]);
         ])
  in
  let directive =
    oneof
      [
        map (( ^ ) "horizon ") (values [ "0"; "100" ] [ "-5"; "x" ]);
        map (( ^ ) "seed ") (values [ "7"; "-1" ] [ "1.5" ]);
        map (( ^ ) "predictor ")
          (values
             [ "one-step"; "perfect"; "blind"; "snoop:4" ]
             [ "snoop:0"; "snoop:-1"; "snoop"; "psychic" ]);
      ]
  in
  map3
    (fun before flows after ->
      String.concat "\n" (("horizon 100" :: before) @ flows @ after))
    (list_size (0 -- 3) directive)
    (list_size (1 -- 4) flow)
    (list_size (0 -- 1) directive)

let fuzz_scenario_typed_errors =
  QCheck.Test.make ~count:1000
    ~name:"Scenario.parse fails only as a located Bad_spec"
    (QCheck.make ~print:Fun.id gen_scenario)
    (fun text ->
      let predictor_lines =
        List.concat
          (List.mapi
             (fun i l ->
               if String.starts_with ~prefix:"predictor " l then [ i + 1 ]
               else [])
             (String.split_on_char '\n' text))
      in
      match Core.Scenario.parse text with
      | sc -> predictor_lines = [] && sc.Core.Scenario.horizon >= 0
      | exception Error.Error { kind = Error.Bad_spec; what; context; _ } -> (
          match List.assoc_opt "line" context with
          | None -> false
          | Some line ->
              (* Lines parse in order, so an earlier bad line may fail
                 first; a failure on a predictor line must be this one. *)
              (not (List.mem (int_of_string line) predictor_lines))
              || String.starts_with ~prefix:"the predictor directive" what)
      | exception _ -> false)

let suite =
  [
    ("crash loses only that job", `Quick, test_crash_loses_only_that_job);
    ("typed errors pass through", `Quick, test_typed_errors_pass_through);
    ("retries rerun failed jobs", `Quick, test_retries_rerun_failed_jobs);
    ("notify fires once per item", `Quick, test_notify_fires_once_per_item);
    ("spec parse is typed", `Quick, test_spec_parse_typed);
    ("run_outcome classifies failures", `Quick, test_run_outcome_classifies);
    ("file spec of a malformed scenario", `Quick, test_file_spec_bad_scenario);
    ("journal round-trip", `Quick, test_journal_roundtrip);
    ("journal resume rule", `Quick, test_journal_resume_rule);
    ("topo journal resume rule", `Quick, test_topo_journal_resume_rule);
    ("journal truncated tail dropped", `Quick, test_journal_truncated_tail_dropped);
    ("journal mid-file corruption rejected", `Quick,
     test_journal_mid_file_corruption_rejected);
    ("resume is byte-identical", `Slow, test_resume_is_byte_identical);
    ("invariant: credit bounds", `Quick, test_invariant_credit_bounds);
    ("invariant: virtual time", `Quick, test_invariant_virtual_time);
    ("invariant: finish tags", `Quick, test_invariant_finish_tags);
    ("invariant: lag conservation", `Quick, test_invariant_lag_sum);
    ("invariant: work conservation", `Quick, test_invariant_work_conservation);
    ("invariants clean on real schedulers", `Slow,
     test_invariants_clean_on_real_schedulers);
    ("invariants do not perturb snooping", `Quick,
     test_invariants_do_not_perturb_snoop);
    ("chaos events round-trip through JSON", `Quick,
     test_chaos_event_roundtrip);
    ("chaos inject: transient vs persistent", `Quick,
     test_chaos_inject_semantics);
    ("chaos faults through the pool retry path", `Quick,
     test_chaos_pool_retry);
    ("chaos handoff verdicts", `Quick, test_chaos_verdicts);
    ("chaos carry mangling changes the digest", `Quick,
     test_chaos_mangle_digest);
    QCheck_alcotest.to_alcotest fuzz_spec_never_raises;
    QCheck_alcotest.to_alcotest fuzz_spec_parse_never_raises;
    QCheck_alcotest.to_alcotest fuzz_json_never_raises;
    QCheck_alcotest.to_alcotest fuzz_json_mutated_documents;
    QCheck_alcotest.to_alcotest fuzz_scenario_typed_errors;
  ]
