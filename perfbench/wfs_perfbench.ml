(* wfs_perfbench: end-to-end and per-layer benchmark of the simulator.

     wfs_perfbench.exe --workload paper_grid|sparse_cell|metro_topo
       --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt]

   One process, one OCaml domain, jobs = 1.  Pass 0 runs every session once,
   untimed, checks its outputs and reads the heap high-water mark; further
   passes repeat the sessions until [--seconds] have gone by.  With
   [--trace 0] the passes are untraced and the end-to-end metrics are
   printed.  With [--trace 1] traced and untraced passes alternate and the
   per-layer metrics are printed.  The last line of stdout is one JSON
   object.  See perfbench/README.md. *)

module W = Workloads
module J = Wfs_util.Json
module Core = Wfs_core

let usage () =
  prerr_endline
    "usage: wfs_perfbench.exe --workload paper_grid|sparse_cell|metro_topo \
     --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt]";
  exit 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : W.size;
  corrupt : bool;
}

let parse_args () =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some n -> go { o with seed = n } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some x when x > 0. -> go { o with seconds = x } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--size" :: "full" :: rest -> go { o with size = W.Full } rest
    | "--size" :: "tiny" :: rest -> go { o with size = W.Tiny } rest
    | "--corrupt" :: rest -> go { o with corrupt = true } rest
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 42; seconds = 10.; trace = false; size = W.Full; corrupt = false }
    (List.tl (Array.to_list Sys.argv))

(* --- Metric catalogue ------------------------------------------------------
   Each metric with its unit, and for the per-layer ones the end-to-end
   metric it should move and the workloads it should move on. *)

let e2e_catalogue =
  [
    ("e2e_s", "s", "spec text to artifact bytes");
    ("slots_per_s", "slots/s", "simulated slots / host seconds in the run call");
    ("setup_s", "s", "parse + build");
    ("heap_peak_mb", "MB", "major-heap high-water mark");
    ("fail_frac", "ratio", "failed / attempted session repetitions");
  ]

let sched_names =
  List.map (fun (e : Core.Registry.entry) -> e.name) (Core.Registry.table1_extended ())
  @ [ "CIF-Q-P"; "CSDPS" ]

let metric_of_sched name = String.map (fun c -> if c = ' ' then '_' else c) name

(* Per-layer metrics: unit, the end-to-end metric the layer should move,
   the workloads it should move on, and where it should stay flat. *)
let layer_catalogue =
  let grid_sparse = "paper_grid, sparse_cell" in
  let run = "slots_per_s, e2e_s" in
  [
    ("spec.parse_s", "s", "setup_s", "paper_grid", "-");
    ("build.setups_s", "s", "setup_s", "sparse_cell, paper_grid", "metro_topo");
    ("build.sched_s", "s", "setup_s", "sparse_cell, paper_grid", "metro_topo");
    ("build.config_s", "s", "setup_s", "sparse_cell, paper_grid", "metro_topo");
    ("build.minor_words", "words", "setup_s", "sparse_cell, paper_grid", "metro_topo");
    ("sim.run_s", "s", run, grid_sparse, "metro_topo");
    ("sim.ns_per_slot", "ns", run, grid_sparse, "metro_topo");
  ]
  @ List.init 6 (fun k ->
        (Printf.sprintf "sim.run_s.example%d" (k + 1), "s", run, "paper_grid", "metro_topo"))
  @ List.map (fun n -> ("sim.run_s." ^ metric_of_sched n, "s", run, grid_sparse, "metro_topo")) sched_names
  @ [
      ("sim.self_s", "s", "slots_per_s", "paper_grid", "sparse_cell");
      ("sim.minor_words_per_slot", "words/slot", "slots_per_s, heap_peak_mb", grid_sparse, "-");
      ("sim.major_words", "words", "slots_per_s, heap_peak_mb", grid_sparse, "-");
      ("gc.minor_collections", "count", "slots_per_s, heap_peak_mb", grid_sparse, "-");
      ("gc.major_collections", "count", "slots_per_s, heap_peak_mb", grid_sparse, "-");
    ]
  @ List.map
      (fun n -> (n, (if n = "sched.select_calls" then "count" else "ns"), "slots_per_s", "paper_grid", "sparse_cell"))
      [ "sched.select_calls"; "sched.select_ns"; "sched.enqueue_ns"; "sched.outcome_ns"; "sched.slot_end_ns" ]
  @ List.map
      (fun (n, u) -> (n, u, "slots_per_s", "sparse_cell", "paper_grid"))
      [
        ("sched.quiescent_calls", "count"); ("sched.quiescent_ns", "ns"); ("sched.absorb_yield", "ratio");
        ("fast.quiescence_ratio", "ratio"); ("fast.absorbed_windows", "count");
        ("fast.declined_windows", "count"); ("fast.absorb_ratio", "ratio");
        ("fast.reference_slots", "slots");
      ]
  @ [
      ("topo.build_s", "s", "setup_s", "metro_topo", grid_sparse);
      ("topo.run_s", "s", "slots_per_s", "metro_topo", grid_sparse);
      ("topo.epoch_ms.p50", "ms", "slots_per_s", "metro_topo", grid_sparse);
      ("topo.epoch_ms.p90", "ms", "slots_per_s", "metro_topo", grid_sparse);
      ("topo.minor_words_per_cell_slot", "words/slot", "slots_per_s", "metro_topo", grid_sparse);
      ("topo.epochs", "count", "slots_per_s", "metro_topo", "-");
      ("topo.handoffs", "count", "slots_per_s", "metro_topo", "-");
      ("topo.rebuilds", "count", "slots_per_s", "metro_topo", "-");
      ("topo.rebuilds_per_handoff", "ratio", "slots_per_s", "metro_topo", "-");
      ("topo.merge_s", "s", "e2e_s", "metro_topo", "-");
      ("xray.sample_s", "s", "e2e_s", "metro_topo", "slots_per_s everywhere");
      ("xray.write_s", "s", "e2e_s", "metro_topo", "slots_per_s everywhere");
      ("xray.events", "count", "e2e_s", "metro_topo", "slots_per_s everywhere");
      ("xray.windows", "count", "e2e_s", "metro_topo", "slots_per_s everywhere");
      ("out.serialize_s", "s", "e2e_s", "paper_grid", "slots_per_s everywhere");
      ("out.bytes", "bytes", "e2e_s", "paper_grid", "slots_per_s everywhere");
      ("trace.overhead", "ratio", "reported only", "all", "-");
    ]

(* --- Provenance ----------------------------------------------------------- *)

let git_rev () =
  match Sys.getenv_opt "PERFBENCH_GIT_REV" with Some r when r <> "" -> r | _ -> "unknown"

let provenance o ~sessions ~passes =
  [
    ("profile", Build_info.profile);
    ("ocaml", Sys.ocaml_version);
    ("flambda", string_of_bool Build_info.flambda);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("jobs", "1");
    ("git", git_rev ());
    ("workload", o.workload);
    ("seed", string_of_int o.seed);
    ("size", match o.size with W.Full -> "full" | W.Tiny -> "tiny");
    ("sessions", string_of_int sessions);
    ("repetitions", string_of_int passes);
  ]

(* --- Fastest repetitions ----------------------------------------------------

   Each part of a session keeps its fastest repetition: the set-up, every
   run part (the whole Simulator.run, or each epoch of a Topology.run) and
   the rest.  The host has slow phases lasting from seconds to minutes; the
   fastest of many short repetitions spread over the run is the statistic
   that stays put between runs.  Epochs are the unit for a topology because
   one topology session is too long to be repeated often. *)

type best = {
  setup : int array;
  run : int array array;  (** per session, per run part; [||] before any *)
  sample : int array array;  (** per session, per barrier sample *)
  rest : int array;
}

let best n =
  { setup = Array.make n max_int; run = Array.make n [||]; sample = Array.make n [||];
    rest = Array.make n max_int }

let keep_min a i v = if v < a.(i) then a.(i) <- v

(* Elementwise minimum; [false] when the parts do not line up with the
   earlier repetitions' (the epoch count of a spec is fixed). *)
let merge_parts parts i v =
  match parts.(i) with
  | [||] when v <> [||] ->
      parts.(i) <- Array.copy v;
      true
  | r when Array.length r = Array.length v ->
      Array.iteri (fun j x -> keep_min r j x) v;
      true
  | _ -> false

let note b i (out : W.outcome) =
  keep_min b.setup i out.setup_ns;
  keep_min b.rest i out.rest_ns;
  merge_parts b.run i out.run_ns && merge_parts b.sample i out.sample_ns

let sum = Array.fold_left ( + ) 0
(* Sum over the sessions that have a timed repetition. *)
let over b f =
  let acc = ref 0 in
  Array.iteri (fun i r -> if r <> [||] then acc := !acc + f i) b.run;
  !acc

let setup_ns b = over b (fun i -> b.setup.(i))
let run_ns b = over b (fun i -> sum b.run.(i))
let e2e_ns b = over b (fun i -> b.setup.(i) + sum b.run.(i) + sum b.sample.(i) + b.rest.(i))
let seconds_of_ns ns = float_of_int ns /. 1e9

let percentile l p =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      float_of_int a.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. p +. 0.5)))

let () =
  let o = parse_args () in
  let workload = match W.workload_of_string o.workload with Some w -> w | None -> usage () in
  let sessions = Array.of_list (W.sessions ~size:o.size ~seed:o.seed workload) in
  let n = Array.length sessions in
  let workdir = ".perfbench" in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let tr = Tracer.create () in
  let attempted = ref 0 and failed = ref 0 in
  let report = ref [] in
  let first = Array.make n None in
  let bad0 = Array.make n false in
  let untraced = best n and traced = best n in
  let best_layer = Hashtbl.create 16 in
  let layer name =
    match Hashtbl.find_opt best_layer name with
    | Some a -> a
    | None ->
        let a = Array.make n max_int in
        Hashtbl.replace best_layer name a;
        a
  in
  let best_ctr = Array.make n None in
  let skips = Array.make n None in
  let fail i why =
    incr failed;
    report := Printf.sprintf "%s: %s" sessions.(i).label why :: !report
  in
  (* The spans one repetition added, summed by name. *)
  let span_sums ~before =
    let sums = Hashtbl.create 16 in
    let rec collect l =
      if l != before then
        match l with
        | (sp : Tracer.span) :: rest ->
            let d = sp.end_ns - sp.start_ns in
            Hashtbl.replace sums sp.name (d + Option.value ~default:0 (Hashtbl.find_opt sums sp.name));
            collect rest
        | [] -> ()
    in
    collect tr.spans;
    sums
  in
  let note_layers i (out : W.outcome) sums =
    Hashtbl.iter (fun name d -> keep_min (layer name) i d) sums;
    (match (out.counters, Hashtbl.find_opt sums "sim.run") with
    | Some c, Some run ->
        keep_min (layer "sim.self") i (run - Tracer.sched_ns c);
        best_ctr.(i) <-
          Some
            (match best_ctr.(i) with
            | None -> c
            | Some b ->
                {
                  c with
                  select_ns = min b.Tracer.select_ns c.select_ns;
                  enqueue_ns = min b.enqueue_ns c.enqueue_ns;
                  outcome_ns = min b.outcome_ns c.outcome_ns;
                  slot_end_ns = min b.slot_end_ns c.slot_end_ns;
                  quiescent_ns = min b.quiescent_ns c.quiescent_ns;
                })
    | _ -> ());
    if skips.(i) = None then skips.(i) <- out.skip
  in
  let run_pass ~pass ~traced:on =
    tr.on <- on;
    tr.rep <- pass;
    let ctx = { W.tr; size = o.size; workdir; corrupt = o.corrupt && pass = 0 } in
    Array.iter
      (fun (s : W.session) ->
        let i = s.index in
        tr.session <- i;
        (* The checked pass starts every session from a compacted heap, so
           the high-water mark read after it is the largest session's own
           peak rather than an accident of GC debt carried across sessions. *)
        if pass = 0 then Gc.compact ();
        let before = tr.spans in
        incr attempted;
        match W.exec ctx s ~traced:on with
        | exception e ->
            if pass = 0 then bad0.(i) <- true;
            fail i ("raised " ^ Printexc.to_string e)
        | out -> (
            let problems =
              match first.(i) with
              | Some (f : W.outcome) when pass > 0 ->
                  if String.equal f.csv out.csv && String.equal f.json out.json then
                    out.problems
                  else "artifact differs from the checked pass" :: out.problems
              | _ -> out.problems
            in
            if pass = 0 then first.(i) <- Some out;
            match problems with
            | why :: _ ->
                if pass = 0 then bad0.(i) <- true;
                fail i why
            | [] when pass = 0 -> ()
            | [] ->
                if not (note (if on then traced else untraced) i out) then
                  fail i "epoch count changed between repetitions"
                else if on then note_layers i out (span_sums ~before)))
      sessions
  in
  (* Pass 0 sizes the heap and produces the artifacts the deep checks
     read; it is not timed. *)
  run_pass ~pass:0 ~traced:false;
  let heap_words = (Gc.quick_stat ()).top_heap_words in
  let ctx = { W.tr; size = o.size; workdir; corrupt = false } in
  Array.iter
    (fun (s : W.session) ->
      match first.(s.index) with
      | Some out when not bad0.(s.index) -> (
          match W.deep_check ctx s out with
          | [] -> ()
          | why :: _ ->
              bad0.(s.index) <- true;
              fail s.index why
          | exception e ->
              bad0.(s.index) <- true;
              fail s.index ("check raised " ^ Printexc.to_string e))
      | _ -> ())
    sessions;
  if workload = W.Paper_grid && o.size = W.Full && o.seed = 42 then
    List.iter
      (fun (group, why) ->
        Array.iter
          (fun (s : W.session) ->
            if String.equal s.group group && not bad0.(s.index) then begin
              bad0.(s.index) <- true;
              fail s.index why
            end)
          sessions)
      (W.golden_check ~sessions ~csv:(fun i ->
           match first.(i) with Some f -> f.csv | None -> ""));
  let deadline = Tracer.now_ns () + int_of_float (o.seconds *. 1e9) in
  let passes = ref 1 in
  let min_passes = if o.trace then 3 else 2 in
  while !passes < min_passes || Tracer.now_ns () < deadline do
    run_pass ~pass:!passes ~traced:(o.trace && !passes mod 2 = 1);
    incr passes
  done;
  tr.on <- false;
  (* --- Metrics --------------------------------------------------------- *)
  let total_slots =
    Array.fold_left (fun acc (s : W.session) -> acc + s.slots) 0 sessions
  in
  let cell_slots =
    Array.fold_left (fun acc (s : W.session) -> if s.topo then acc else acc + s.slots) 0 sessions
  in
  let e2e_s = seconds_of_ns (e2e_ns untraced) in
  let fail_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let metrics =
    if not o.trace then
      [
        ("e2e_s", e2e_s);
        ("slots_per_s", float_of_int total_slots /. seconds_of_ns (max 1 (run_ns untraced)));
        ("setup_s", seconds_of_ns (setup_ns untraced));
        ("heap_peak_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
        ("fail_frac", fail_frac);
      ]
    else begin
      let sum_layer ?(only = fun _ -> true) name =
        match Hashtbl.find_opt best_layer name with
        | None -> 0
        | Some a ->
            let acc = ref 0 in
            Array.iteri (fun i v -> if v <> max_int && only sessions.(i) then acc := !acc + v) a;
            !acc
      in
      let secs ?only name = seconds_of_ns (sum_layer ?only name) in
      (* Counts come from the checked pass, whose allocation history is the
         same in every process: they repeat exactly. *)
      let pass0 f =
        Array.fold_left
          (fun acc o -> match o with Some (out : W.outcome) -> acc +. f out | None -> acc)
          0. first
      in
      let gc_delta f (out : W.outcome) = let g0, g1 = out.run_gc in f g1 -. f g0 in
      let cell_pass0 f = pass0 (fun out -> if out.facts = None then f out else 0.) in
      let topo_pass0 f = pass0 (fun out -> match out.facts with Some x -> f x | None -> 0.) in
      let ctr f = Array.fold_left (fun acc c -> match c with Some c -> acc + f c | None -> acc) 0 best_ctr in
      let per_call ns calls = if calls = 0 then 0. else float_of_int ns /. float_of_int calls in
      let skip f = Array.fold_left (fun acc k -> match k with Some k -> acc + f k | None -> acc) 0 skips in
      let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
      let cell_minor = cell_pass0 (fun out -> out.run_minor_words) in
      let topo_minor = pass0 (fun out -> out.run_minor_words) -. cell_minor in
      let handoffs = topo_pass0 (fun f -> float_of_int f.handoffs) in
      let rebuilds = topo_pass0 (fun f -> float_of_int f.rebuilds) in
      let epoch_ns =
        List.concat_map
          (fun (s : W.session) ->
            let r = traced.run.(s.index) in
            if s.topo && Array.length r > 1 then Array.to_list (Array.sub r 0 (Array.length r - 1))
            else [])
          (Array.to_list sessions)
      in
      let sim_run = secs "sim.run" in
      [
        ("spec.parse_s", secs "spec.parse");
        ("build.setups_s", secs "build.setups");
        ("build.sched_s", secs "build.sched");
        ("build.config_s", secs "build.config");
        ("build.minor_words", cell_pass0 (fun out -> out.build_minor_words));
        ("sim.run_s", sim_run);
        ("sim.ns_per_slot", if cell_slots = 0 then 0. else sim_run *. 1e9 /. float_of_int cell_slots);
      ]
      @ List.init 6 (fun k ->
            let group = Printf.sprintf "example%d" (k + 1) in
            ("sim.run_s." ^ group, secs ~only:(fun s -> String.equal s.group group) "sim.run"))
      @ List.map
          (fun name ->
            ( "sim.run_s." ^ metric_of_sched name,
              secs ~only:(fun s -> (not s.topo) && String.equal s.sched name) "sim.run" ))
          sched_names
      @ [
          ("sim.self_s", secs "sim.self");
          ( "sim.minor_words_per_slot",
            if cell_slots = 0 then 0. else cell_minor /. float_of_int cell_slots );
          ("sim.major_words", cell_pass0 (gc_delta (fun g -> g.major_words)));
          ("gc.minor_collections", pass0 (gc_delta (fun g -> float_of_int g.minor_collections)));
          ("gc.major_collections", pass0 (gc_delta (fun g -> float_of_int g.major_collections)));
          ("sched.select_calls", float_of_int (ctr (fun c -> c.select_calls)));
          ("sched.select_ns", per_call (ctr (fun c -> c.select_ns)) (ctr (fun c -> c.select_calls)));
          ("sched.enqueue_ns", per_call (ctr (fun c -> c.enqueue_ns)) (ctr (fun c -> c.enqueue_calls)));
          ("sched.outcome_ns", per_call (ctr (fun c -> c.outcome_ns)) (ctr (fun c -> c.outcome_calls)));
          ("sched.slot_end_ns", per_call (ctr (fun c -> c.slot_end_ns)) (ctr (fun c -> c.slot_end_calls)));
          ("sched.quiescent_calls", float_of_int (ctr (fun c -> c.quiescent_calls)));
          ("sched.quiescent_ns", per_call (ctr (fun c -> c.quiescent_ns)) (ctr (fun c -> c.quiescent_calls)));
          ("sched.absorb_yield", ratio (ctr (fun c -> c.absorbed)) (ctr (fun c -> c.requested)));
          ( "fast.quiescence_ratio",
            ratio (skip Core.Skip_stats.absorbed_slots) (skip Core.Skip_stats.total_slots) );
          ("fast.absorbed_windows", float_of_int (skip Core.Skip_stats.absorbed_windows));
          ("fast.declined_windows", float_of_int (skip Core.Skip_stats.declined_windows));
          ( "fast.absorb_ratio",
            ratio (skip Core.Skip_stats.absorbed_windows)
              (skip Core.Skip_stats.absorbed_windows + skip Core.Skip_stats.declined_windows) );
          ("fast.reference_slots", float_of_int (skip Core.Skip_stats.reference_slots));
          ("topo.build_s", secs "topo.build");
          ("topo.run_s", secs "topo.run");
          ("topo.epoch_ms.p50", percentile epoch_ns 0.5 /. 1e6);
          ("topo.epoch_ms.p90", percentile epoch_ns 0.9 /. 1e6);
          ( "topo.minor_words_per_cell_slot",
            if total_slots = cell_slots then 0.
            else topo_minor /. float_of_int (total_slots - cell_slots) );
          ("topo.epochs", topo_pass0 (fun f -> float_of_int f.epochs));
          ("topo.handoffs", handoffs);
          ("topo.rebuilds", rebuilds);
          ("topo.rebuilds_per_handoff", if handoffs = 0. then 0. else rebuilds /. handoffs);
          ("topo.merge_s", secs "topo.merge");
          ("xray.sample_s", secs "xray.sample");
          ("xray.write_s", secs "xray.write");
          ("xray.events", topo_pass0 (fun f -> float_of_int f.events));
          ("xray.windows", topo_pass0 (fun f -> float_of_int f.windows));
          ("out.serialize_s", secs "out.serialize");
          ( "out.bytes",
            pass0 (fun out ->
                float_of_int (String.length out.csv + String.length out.json + out.xray_bytes)) );
          ( "trace.overhead",
            let u = e2e_ns untraced and t = e2e_ns traced in
            if u = 0 || t = 0 then 0. else (float_of_int t /. float_of_int u) -. 1. );
        ]
    end
  in
  let catalogue =
    if o.trace then layer_catalogue
    else List.map (fun (name, unit, what) -> (name, unit, what, "", "")) e2e_catalogue
  in
  (* --- Output ----------------------------------------------------------- *)
  List.iter (fun l -> prerr_endline ("perfbench: FAIL " ^ l)) (List.rev !report);
  Printf.printf "# wfs-perfbench/1 %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ v) (provenance o ~sessions:n ~passes:!passes)));
  Printf.printf "# attempted=%d failed=%d fail_frac=%s\n" !attempted !failed
    (J.float_to_string fail_frac);
  let vanished =
    Array.fold_left (fun acc o -> match o with Some (out : W.outcome) -> acc + out.vanished | None -> acc) 0 first
  in
  if vanished > 0 then
    Printf.printf "# known defect: %d packets discarded at the IWFQ lag bound without a drop (%s)\n"
      vanished (String.concat ", " W.lag_bound_discards);
  List.iter
    (fun (name, unit, what, on, flat) ->
      let v = List.assoc name metrics in
      if o.trace then
        Printf.printf "# %-32s %14.6g %-10s targets %s on %s; flat on %s\n" name v unit what on flat
      else Printf.printf "# %-32s %14.6g %-10s %s\n" name v unit what)
    catalogue;
  if o.trace then Tracer.write tr ~path:(Filename.concat workdir (o.workload ^ ".spans.jsonl"));
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let json_metrics =
    List.filter_map
      (fun (name, unit, _, _, _) ->
        if String.equal name "fail_frac" then None
        else
          let v = List.assoc name metrics in
          Some (name, J.Obj [ ("value", J.Float (if Float.is_finite v then v else 0.)); ("unit", J.Str unit) ]))
      catalogue
  in
  let correct = !failed = 0 && finite in
  (* A failed check is reported in [correct], not in the exit code: the
     run itself completed. *)
  print_endline
    (J.to_string ~pretty:false
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Obj json_metrics);
          ]))
