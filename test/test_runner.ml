(* The parallel experiment engine: pool determinism, spec round-trips, the
   JSON artifact, and the scheduler registries. *)

module Core = Wfs_core
module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Pool = Wfs_runner.Pool
module Json = Wfs_runner.Json
module Artifact = Wfs_runner.Artifact

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Pool --- *)

let test_pool_matches_sequential () =
  (* Deliberately uneven work per item: late items finish first under
     parallel execution, so any completion-order dependence would show. *)
  let f i =
    let acc = ref 0 in
    for k = 0 to (100 - i) * 500 do
      acc := (!acc + (k * i)) mod 9973
    done;
    (i, !acc)
  in
  let items = Array.init 100 (fun i -> i) in
  let seq = Array.map f items in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        true
        (Pool.map ~jobs f items = seq))
    [ 1; 2; 4; 7 ]

let test_pool_empty_and_oversized () =
  check_int "empty input" 0 (Array.length (Pool.map ~jobs:4 (fun x -> x) [||]));
  (* More workers than items must still produce every result. *)
  let r = Pool.map ~jobs:16 (fun i -> i * i) (Array.init 3 (fun i -> i)) in
  check_bool "3 items under 16 jobs" true (r = [| 0; 1; 4 |])

exception Boom of int

let test_pool_propagates_errors () =
  let f i = if i = 5 then raise (Boom i) else i in
  (match Pool.map ~jobs:3 f (Array.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom to escape"
  | exception Boom 5 -> ());
  (* Sequential path raises too. *)
  match Pool.map ~jobs:1 f (Array.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom to escape (jobs=1)"
  | exception Boom 5 -> ()

(* --- Exec determinism --- *)

let fingerprint (m : Core.Metrics.t) =
  List.init (Core.Metrics.n_flows m) (fun flow ->
      ( Core.Metrics.mean_delay m ~flow,
        Core.Metrics.loss m ~flow,
        Core.Metrics.max_delay m ~flow ))

let small_specs () =
  Array.of_list
    (List.map
       (fun sched -> Spec.make ~seed:7 ~horizon:3_000 ~sched (Spec.example ~sum:0.1 1))
       [ "WRR-P"; "SwapA-P"; "IWFQ-P"; "Blind WRR"; "CIF-Q-P"; "CSDPS" ])

let run_all ~jobs specs = Pool.map ~jobs (fun sp -> Exec.run sp) specs

let test_exec_jobs_invariant () =
  let specs = small_specs () in
  let runs jobs = Array.map fingerprint (run_all ~jobs specs) in
  let seq = runs 1 in
  check_bool "jobs=2 identical to jobs=1" true (runs 2 = seq);
  check_bool "jobs=4 identical to jobs=1" true (runs 4 = seq)

let test_exec_order_invariant () =
  (* Each run splits its RNG streams from its own spec seed, so results do
     not depend on what ran before them or on which domain they landed. *)
  let specs = small_specs () in
  let n = Array.length specs in
  let rev = Array.init n (fun i -> specs.(n - 1 - i)) in
  let fwd = Array.map fingerprint (run_all ~jobs:2 specs) in
  let bwd = Array.map fingerprint (run_all ~jobs:2 rev) in
  Array.iteri
    (fun i fp -> check_bool "same result in reversed order" true (fp = bwd.(n - 1 - i)))
    fwd

let test_exec_replicate () =
  let spec = Spec.make ~seed:3 ~horizon:2_000 ~sched:"SwapA-P" (Spec.example 1) in
  let replicas = Spec.replicas 3 spec in
  Alcotest.(check (list int))
    "consecutive seeds" [ 3; 4; 5 ]
    (List.map (fun (sp : Spec.t) -> sp.Spec.seed) replicas);
  let reps = run_all ~jobs:2 (Array.of_list replicas) in
  Array.iteri
    (fun k m ->
      let solo = Exec.run (Spec.with_seed (3 + k) spec) in
      check_bool
        (Printf.sprintf "replica %d = standalone seed %d" k (3 + k))
        true
        (fingerprint m = fingerprint solo))
    reps;
  check_str "one replica renders its plain value"
    (Wfs_util.Tablefmt.cell_of_float 2.5)
    (Wfs_util.Tablefmt.cell_of_replicas [ 2.5 ] Fun.id);
  (* mean 2, s = 1, n = 3: t(0.975, 2) / sqrt 3 = 4.303 / 1.732 *)
  check_str "several render mean±ci" "2±2.48"
    (Wfs_util.Tablefmt.cell_of_replicas [ 1.; 2.; 3. ] Fun.id);
  match Spec.replicas 0 spec with
  | _ -> Alcotest.fail "zero replicas must be refused"
  | exception Invalid_argument _ -> ()

(* --- checkpoint/resume --- *)

let test_journal_truncate_resume () =
  (* Full sweep journaling every result; truncate the journal after N
     entries (a killed run); resume from it.  The merged, rendered output
     must be byte-identical to the uninterrupted sweep. *)
  let specs =
    List.map
      (fun sched -> Spec.make ~seed:13 ~horizon:2_000 ~sched (Spec.example 1))
      [ "WRR-P"; "SwapA-P"; "IWFQ-P"; "CIF-Q-P"; "CSDPS" ]
  in
  let render sp m =
    Spec.to_string sp ^ " => "
    ^ Wfs_util.Json.to_string ~pretty:false (Core.Metrics.to_json m)
  in
  let uninterrupted = List.map (fun sp -> render sp (Exec.run sp)) specs in
  let path = Filename.temp_file "wfs_resume" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let params = [ ("horizon", Wfs_util.Json.Int 2_000) ] in
      let w = Wfs_runner.Journal.create ~path ~params () in
      List.iter
        (fun sp ->
          Wfs_runner.Journal.append w ~key:(Spec.to_string sp)
            ~value:(Core.Metrics.to_json (Exec.run sp)))
        specs;
      Wfs_runner.Journal.close w;
      (* Kill the sweep after N = 3 completed entries: keep the header line
         plus the first three entry lines. *)
      let lines =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        go []
      in
      let keep = List.filteri (fun i _ -> i < 4) lines in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      close_out oc;
      match Wfs_runner.Journal.load ~path () with
      | Error e ->
          Alcotest.failf "truncated journal must load: %s"
            (Wfs_util.Error.to_string e)
      | Ok { entries; _ } ->
          check_int "three entries survive the kill" 3 (List.length entries);
          let cached = Hashtbl.create 8 in
          List.iter (fun (k, v) -> Hashtbl.replace cached k v) entries;
          let resumed =
            List.map
              (fun sp ->
                match Hashtbl.find_opt cached (Spec.to_string sp) with
                | Some v ->
                    render sp (Option.get (Core.Metrics.of_json v))
                | None -> render sp (Exec.run sp))
              specs
          in
          List.iter2
            (check_str "resumed output byte-identical")
            uninterrupted resumed)

(* --- Spec round-trip --- *)

let roundtrip sp =
  match Spec.of_string (Spec.to_string sp) with
  | Ok sp' ->
      check_bool (Printf.sprintf "round-trip %s" (Spec.to_string sp)) true
        (Spec.equal sp sp')
  | Error e -> Alcotest.failf "round-trip failed on %S: %s" (Spec.to_string sp) e

let test_spec_roundtrip () =
  roundtrip (Spec.make ~sched:"WPS" (Spec.example 1));
  roundtrip (Spec.make ~seed:0 ~horizon:1 ~sched:"IWFQ-I" (Spec.example ~sum:0.25 2));
  roundtrip (Spec.make ~seed:(-3) ~sched:"Blind WRR" (Spec.example 6));
  roundtrip
    (Spec.make ~seed:7 ~horizon:50_000 ~sched:"CIF-Q"
       (Spec.file "examples/cell.scenario"));
  (* Whitespace-insensitive parse. *)
  (match Spec.of_string "example:1|WPS|seed=42|horizon=1000" with
  | Ok sp ->
      check_str "sched kept verbatim" "WPS" sp.Spec.sched;
      check_int "horizon" 1_000 sp.Spec.horizon
  | Error e -> Alcotest.failf "compact form rejected: %s" e);
  List.iter
    (fun bad ->
      match Spec.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [
      "";
      "garbage";
      "example:1 | WPS | seed=42";  (* missing horizon *)
      "example:9 | WPS | seed=1 | horizon=10";  (* unknown example *)
      "example:3?sum=0.1 | WPS | seed=1 | horizon=10";  (* sum needs ex 1-2 *)
      "example:1 | WPS | seed=x | horizon=10";
      "example:1 | WPS | seed=1 | horizon=0";
    ]

let test_spec_defaults_and_builder () =
  let sp = Spec.make ~sched:"WPS" (Spec.example 1) in
  check_int "default seed" Spec.default_seed sp.Spec.seed;
  check_int "default horizon" Spec.default_horizon sp.Spec.horizon;
  let sp' = Spec.with_sched "IWFQ" (Spec.with_horizon 5 (Spec.with_seed 9 sp)) in
  check_int "with_seed" 9 sp'.Spec.seed;
  check_int "with_horizon" 5 sp'.Spec.horizon;
  check_str "with_sched" "IWFQ" sp'.Spec.sched;
  (match Spec.example ~sum:0.5 3 with
  | _ -> Alcotest.fail "sum outside examples 1-2 must be rejected"
  | exception Invalid_argument _ -> ());
  match Spec.make ~horizon:0 ~sched:"WPS" (Spec.example 1) with
  | _ -> Alcotest.fail "non-positive horizon must be rejected"
  | exception Invalid_argument _ -> ()

let test_spec_of_scenario_file () =
  let path = Filename.temp_file "wfs_spec" ".scenario" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "horizon 12345\nseed 9\nflow weight=1 source=cbr:2 channel=good\n";
      close_out oc;
      let sp = Spec.of_scenario_file path in
      check_int "seed lifted from file" 9 sp.Spec.seed;
      check_int "horizon lifted from file" 12_345 sp.Spec.horizon;
      check_str "default sched" "WPS" sp.Spec.sched;
      roundtrip sp)

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("yes", Json.Bool true);
        ("no", Json.Bool false);
        ("int", Json.Int (-42));
        ("floats", Json.Arr (List.map (fun f -> Json.Float f)
             [ 0.1; -3.25; 1e-9; 1.7976931348623157e308; 12345.6789; 2. ]));
        ("str", Json.Str "line\nbreak \"quoted\" \\ tab\t");
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("a", Json.Arr [ Json.Obj [ ("b", Json.Int 1) ] ]) ]);
      ]
  in
  let text = Json.to_string doc in
  (match Json.of_string text with
  | Ok doc' -> check_str "reparse then reprint" text (Json.to_string doc')
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{\"a\":1} x" ]

let test_json_float_fidelity () =
  List.iter
    (fun f ->
      let s = Json.float_to_string f in
      check_bool (Printf.sprintf "%s restores bits" s) true
        (Float.equal (float_of_string s) f))
    [ 0.1; 0.2; 0.3; 1. /. 3.; 1e-300; 123456789.123456789; 2.5e-8 ]

(* --- Artifact --- *)

let sample_artifact () =
  Artifact.v ~horizon:20_000 ~seed:42 ~seeds:3 ~jobs:4 ~runs:130 ~slots:2_600_000
    ~wall_clock_s:3.25
    ~tables:
      [
        {
          Artifact.title = "Table 1 (measured)";
          columns = [ "alg"; "d1"; "l1" ];
          rows = [ [ "WRR-P"; "31.1"; "0" ]; [ "SwapA-P"; "22.5±1.2"; "0" ] ];
        };
        { Artifact.title = "empty"; columns = []; rows = [] };
      ]

let test_artifact_roundtrip () =
  let art = sample_artifact () in
  check_bool "slots_per_sec derived" true
    (Float.equal art.Artifact.slots_per_sec (2_600_000. /. 3.25));
  let path = Filename.temp_file "wfs_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Artifact.write ~path art;
      match Artifact.read path with
      | Ok art' -> check_bool "read back equal" true (Artifact.equal art art')
      | Error e -> Alcotest.failf "artifact read failed: %s" e)

let test_artifact_rejects_bad_schema () =
  let json =
    Artifact.to_json (sample_artifact ())
    |> function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if String.equal k "schema" then (k, Json.Str "wfs-bench/999")
               else (k, v))
             fields)
    | j -> j
  in
  match Artifact.of_json json with
  | Ok _ -> Alcotest.fail "unknown schema version must be rejected"
  | Error _ -> ()

(* --- Registries --- *)

let test_registry_lookup () =
  let e = Core.Registry.get "wps" in
  check_str "WPS aliases SwapA-P (case-insensitive)" "SwapA-P" e.Core.Registry.name;
  check_str "IWFQ alias" "IWFQ-P" (Core.Registry.get "iwfq").Core.Registry.name;
  check_str "CIF-Q alias" "CIF-Q-P" (Core.Registry.get "CIFQ").Core.Registry.name;
  check_bool "mem canonical" true (Core.Registry.mem "Blind WRR");
  check_bool "mem unknown" false (Core.Registry.mem "PGPS");
  (match Core.Registry.get "nope" with
  | _ -> Alcotest.fail "unknown name must raise"
  | exception Invalid_argument msg ->
      check_bool "error lists known names" true
        (String.length msg > 0
        && String.length (String.concat "" [ msg ]) > 20));
  let names = Core.Registry.names () in
  check_int "no duplicate canonical names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  (* names() enumerates each scheduler once: aliases must not add rows. *)
  check_bool "WPS not a separate row" true
    (not (List.exists (String.equal "WPS") names))

let test_registry_predictors () =
  let kind name = (Core.Registry.get name).Core.Registry.predictor in
  check_bool "-I rows are oracle" true
    (kind "SwapA-I" = Wfs_channel.Predictor.Perfect);
  check_bool "-P rows are one-step" true
    (kind "SwapA-P" = Wfs_channel.Predictor.One_step);
  check_bool "blind WRR is blind" true
    (kind "Blind WRR" = Wfs_channel.Predictor.Blind)

let suite =
  [
    ("pool matches sequential", `Quick, test_pool_matches_sequential);
    ("pool edge cases", `Quick, test_pool_empty_and_oversized);
    ("pool propagates errors", `Quick, test_pool_propagates_errors);
    ("exec invariant under jobs", `Slow, test_exec_jobs_invariant);
    ("exec invariant under order", `Slow, test_exec_order_invariant);
    ("exec replicate", `Slow, test_exec_replicate);
    ("journal truncate and resume", `Slow, test_journal_truncate_resume);
    ("spec round-trip", `Quick, test_spec_roundtrip);
    ("spec defaults and builder", `Quick, test_spec_defaults_and_builder);
    ("spec from scenario file", `Quick, test_spec_of_scenario_file);
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json float fidelity", `Quick, test_json_float_fidelity);
    ("artifact round-trip", `Quick, test_artifact_roundtrip);
    ("artifact schema check", `Quick, test_artifact_rejects_bad_schema);
    ("registry lookup", `Quick, test_registry_lookup);
    ("registry predictors", `Quick, test_registry_predictors);
  ]
