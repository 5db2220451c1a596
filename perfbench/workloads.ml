(* The three workloads, and one repetition of one session: spec text to
   artifact bytes through the libraries' public entry points, with the
   output checks that run after the clock stops. *)

module Core = Wfs_core
module M = Wfs_core.Metrics
module Spec = Wfs_runner.Spec
module Topology = Wfs_topo.Topology
module Causality = Wfs_xray.Causality
module Windowed = Wfs_xray.Windowed
module J = Wfs_util.Json
module T = Wfs_util.Tablefmt

let now_ns = Tracer.now_ns

type workload = Paper_grid | Sparse_cell | Metro_topo
type size = Full | Tiny

let workloads = [ ("paper_grid", Paper_grid); ("sparse_cell", Sparse_cell); ("metro_topo", Metro_topo) ]
let workload_of_string s = List.assoc_opt s workloads

type session = {
  index : int;
  label : string;
  group : string;  (** ["example<k>"] on paper_grid, [""] elsewhere *)
  sched : string;
  text : string;  (** spec text, parsed again on every repetition *)
  slots : int;  (** simulated slots per repetition; cell-slots for a topology *)
  topo : bool;
  fast : bool;
}

(* --- Workload definitions ------------------------------------------------- *)

(* The paper's credit/debit caps, as [wfs_sim] and the golden CSVs use them. *)
let credit_limit = 4
let debit_limit = 4

(* sparse_cell: bench/perf.ml's macro shape at its sparsest tier — 256 flows,
   2 of them active with Poisson traffic at 0.05 aggregate load over bursty
   Gilbert-Elliott channels, the other 254 silent.  The scenario grammar has
   no silent source, so the spec names this generator instead of a file. *)
let sparse_flows = 256
let sparse_active = 2
let sparse_load = 0.05
let sparse_scenario = Printf.sprintf "sparse:%d,%d,%g" sparse_flows sparse_active sparse_load
let sparse_scheds = [ "SwapA-P"; "IWFQ-P"; "CIF-Q-P"; "CSDPS" ]

(* metro_topo: many small cells with frequent handoffs, fast path on. *)
let metro_scenario = "perfbench/metro_cell.scenario"
let metro_scheds = [ "SwapA-P"; "CIF-Q-P" ]
let metro_mobility = 0.2
let metro_epoch = 100
let metro_window = 1000

type dims = {
  grid_horizon : int;
  sparse_horizon : int;
  sparse_seeds : int;
  metro_cells : int;
  metro_horizon : int;
  cell_prefix : int;  (** slots of the fast-vs-reference comparison *)
  topo_prefix : int;
}

let dims = function
  | Full ->
      { grid_horizon = 20_000; sparse_horizon = 250_000; sparse_seeds = 4;
        metro_cells = 64; metro_horizon = 5_000; cell_prefix = 20_000;
        topo_prefix = 2_000 }
  | Tiny ->
      { grid_horizon = 2_000; sparse_horizon = 20_000; sparse_seeds = 1;
        metro_cells = 8; metro_horizon = 2_000; cell_prefix = 1_000;
        topo_prefix = 1_000 }

let sessions ~size ~seed workload =
  let d = dims size in
  let mk =
    List.mapi (fun index (label, group, sched, text, slots, topo, fast) ->
        { index; label; group; sched; text; slots; topo; fast })
  in
  match workload with
  | Paper_grid ->
      mk
        (List.concat_map
           (fun n ->
             let scn = Spec.example ?sum:(if n <= 2 then Some 0.1 else None) n in
             List.map
               (fun (e : Core.Registry.entry) ->
                 let sp = Spec.make ~seed ~horizon:d.grid_horizon ~sched:e.name scn in
                 let group = Printf.sprintf "example%d" n in
                 ( group ^ "/" ^ e.name, group, e.name, Spec.to_string sp,
                   d.grid_horizon, false, false ))
               (Core.Registry.table1_extended ()))
           [ 1; 2; 3; 4; 5; 6 ])
  | Sparse_cell ->
      mk
        (List.concat_map
           (fun sched ->
             List.init d.sparse_seeds (fun k ->
                 let sp =
                   Spec.make ~seed:(seed + k) ~horizon:d.sparse_horizon ~sched
                     (Spec.file sparse_scenario)
                 in
                 ( Printf.sprintf "%s/seed=%d" sched (seed + k), "", sched,
                   Spec.to_string sp, d.sparse_horizon, false, true )))
           sparse_scheds)
  | Metro_topo ->
      mk
        (List.map
           (fun sched ->
             let sp =
               Spec.make ~seed ~horizon:d.metro_horizon ~sched
                 ~topo:
                   (Spec.topo ~cells:d.metro_cells ~mobility:metro_mobility
                      ~epoch:metro_epoch)
                 (Spec.file metro_scenario)
             in
             ( sched, "", sched, Spec.to_string sp,
               d.metro_horizon * d.metro_cells, true, true ))
           metro_scheds)

(* --- Building ----------------------------------------------------------- *)

let parse text =
  match Spec.of_string text with
  | Ok sp -> sp
  | Error msg -> Wfs_util.Error.bad_spec ~who:"perfbench" msg ~context:[ ("spec", text) ]

let sparse_setups ~flows ~active ~load ~seed =
  let rate = load /. float_of_int active in
  Array.init flows (fun id ->
      let flow = Core.Params.flow ~id ~weight:1. ~drop:(Core.Params.Retx_limit 3) () in
      if id < active then
        {
          Core.Simulator.flow;
          source =
            Wfs_traffic.Poisson.create
              ~rng:(Wfs_util.Rng.create (seed + (1000 * id) + 1))
              ~rate;
          channel =
            Wfs_channel.Gilbert_elliott.of_burstiness
              ~rng:(Wfs_util.Rng.create (seed + (1000 * id) + 2))
              ~good_prob:0.9 ~sum:0.1 ();
        }
      else
        {
          Core.Simulator.flow;
          source = Wfs_traffic.Arrival.never ();
          channel = Wfs_channel.Error_free.create ();
        })

let setups_of (sp : Spec.t) =
  match sp.scenario with
  | Spec.File path when String.starts_with ~prefix:"sparse:" path ->
      Scanf.sscanf path "sparse:%d,%d,%f" (fun flows active load ->
          sparse_setups ~flows ~active ~load ~seed:sp.seed)
  | _ -> Wfs_runner.Exec.setups_of sp

(* --- Serialization: the CSV columns of [wfs_sim --csv] -------------------- *)

let flow_cells m ~horizon i =
  [
    T.cell_of_float (M.mean_delay m ~flow:i);
    T.cell_of_float ~decimals:4 (M.loss m ~flow:i);
    T.cell_of_float (M.max_delay m ~flow:i);
    T.cell_of_float (M.stddev_delay m ~flow:i);
    T.cell_of_float ~decimals:4 (M.throughput m ~flow:i ~slots:horizon);
  ]

let csv_header = "algorithm,flow,mean_delay,loss,max_delay,stddev,thpt\n"

let render_rows ?homes (sp : Spec.t) m =
  let b = Buffer.create 4096 in
  for i = 0 to M.n_flows m - 1 do
    let lead =
      match homes with
      | None -> [ sp.sched; string_of_int (i + 1) ]
      | Some h -> [ sp.sched; string_of_int i; string_of_int h.(i) ]
    in
    Buffer.add_string b (String.concat "," (lead @ flow_cells m ~horizon:sp.horizon i));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let metrics_json m = J.to_string ~pretty:false (M.to_json m)

(* --- One repetition ----------------------------------------------------- *)

type topo_facts = {
  epochs : int;
  handoffs : int;
  rebuilds : int;
  events : int;
  windows : int;
}

type outcome = {
  setup_ns : int;  (** parse + build *)
  run_ns : int array;
      (** time inside Simulator.run, or inside Topology.run split at every
          on_barrier call (barrier sampling excluded), one entry per epoch *)
  sample_ns : int array;  (** each on_barrier call: xray barrier sampling *)
  rest_ns : int;
      (** the remainder of spec text to artifact bytes: merge,
          serialization, xray writes *)
  csv : string;
  json : string;
  homes : int array option;  (** final home cell of every flow, for a topology *)
  xray_bytes : int;
  problems : string list;  (** failed output checks; [] when all hold *)
  vanished : int;  (** packets lost without a drop, see [lag_bound_discards] *)
  build_minor_words : float;
  run_minor_words : float;
      (** [Gc.minor_words] is exact; [quick_stat]'s count moves only at
          minor collections *)
  run_gc : Gc.stat * Gc.stat;  (** around the run call *)
  counters : Tracer.counters option;
  skip : Core.Skip_stats.t option;
  facts : topo_facts option;
}

type ctx = {
  tr : Tracer.t;
  size : size;
  workdir : string;
  corrupt : bool;  (** self-test: damage the artifact before checking it *)
}

(* Flip the first digit of the CSV, so the artifact no longer matches the
   metrics it was rendered from. *)
let corrupt_csv csv =
  let b = Bytes.of_string csv in
  let digit i = Bytes.get b i >= '0' && Bytes.get b i <= '9' in
  (match Seq.find digit (Seq.init (Bytes.length b) Fun.id) with
  | Some i -> Bytes.set b i (if Bytes.get b i = '0' then '1' else '0')
  | None -> ());
  Bytes.to_string b

(* The artifact's JSON must load back into metrics that render its CSV. *)
let round_trip ~render ~csv ~json =
  match Result.to_option (J.of_string json) |> Fun.flip Option.bind M.of_json with
  | None -> [ "artifact JSON does not load back into metrics" ]
  | Some m' ->
      if String.equal (render m') csv then []
      else [ "artifact CSV differs from the metrics in its JSON" ]

(* IWFQ enforces its per-flow lag bound (Section 4.1, step 4a) by deleting
   slots, and lib/core/iwfq.ml drops the newest packet with each deleted
   slot without reporting a drop to Metrics, so its loss column under-counts.
   The golden CSVs pin that accounting.  For these rows the check is only
   that no packet appears from nowhere; the packets that vanish are
   reported on every run instead of failing it. *)
let lag_bound_discards = [ "IWFQ-I"; "IWFQ-P" ]

(* Every packet that arrived was delivered, dropped, or is still queued in
   the scheduler.  Returns the failed checks and the packets that vanished
   under the exception above. *)
let conservation ~sched m ~queued =
  let bad = ref [] and vanished = ref 0 in
  let discards = List.mem sched lag_bound_discards in
  for i = M.n_flows m - 1 downto 0 do
    let q = queued i in
    let gap = M.arrivals m ~flow:i - M.delivered m ~flow:i - M.dropped m ~flow:i - q in
    if discards && gap > 0 then vanished := !vanished + gap
    else if gap <> 0 then
      bad :=
        Printf.sprintf "flow %d: %d arrivals <> %d delivered + %d dropped + %d queued" i
          (M.arrivals m ~flow:i) (M.delivered m ~flow:i) (M.dropped m ~flow:i) q
        :: !bad
  done;
  ((match !bad with [] -> [] | l -> [ "packets not conserved: " ^ String.concat "; " l ]), !vanished)

let cell_config ~fast ?skip (entry : Core.Registry.entry) (sp : Spec.t) setups =
  Core.Sim_config.v ~horizon:sp.horizon setups
  |> Core.Sim_config.with_predictor entry.predictor
  |> Core.Sim_config.with_fast_path fast
  |> (match skip with Some k -> Core.Sim_config.with_skip_stats k | None -> Fun.id)
  |> Core.Sim_config.to_config

(* Untimed single-cell run used by the reference-prefix check. *)
let cell_artifact ~fast (sp : Spec.t) =
  let entry = Core.Registry.get sp.sched in
  let setups = setups_of sp in
  let sched =
    entry.make ~credit_limit ~debit_limit (Core.Presets.flows_of setups)
  in
  let m = Core.Simulator.run (cell_config ~fast entry sp setups) sched in
  render_rows sp m ^ metrics_json m

let exec_cell ctx (s : session) ~traced =
  let span name f = Tracer.span ctx.tr name f in
  let counters = if traced then Some (Tracer.counters ()) else None in
  let skip = if traced && s.fast then Some (Core.Skip_stats.create ()) else None in
  let c0 = now_ns () in
  let sp = span "spec.parse" (fun () -> parse s.text) in
  let w0 = Gc.minor_words () in
  let entry = Core.Registry.get sp.sched in
  let setups = span "build.setups" (fun () -> setups_of sp) in
  let sched =
    span "build.sched" (fun () ->
        entry.make ~credit_limit ~debit_limit (Core.Presets.flows_of setups))
  in
  let cfg = span "build.config" (fun () -> cell_config ~fast:s.fast ?skip entry sp setups) in
  let w1 = Gc.minor_words () in
  let c1 = now_ns () in
  let running = match counters with Some c -> Tracer.wrap c sched | None -> sched in
  let g0 = Gc.quick_stat () in
  let w2 = Gc.minor_words () in
  let r0 = now_ns () in
  let m = span "sim.run" (fun () -> Core.Simulator.run cfg running) in
  let r1 = now_ns () in
  let w3 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let csv, json = span "out.serialize" (fun () -> (render_rows sp m, metrics_json m)) in
  let c3 = now_ns () in
  let csv = if ctx.corrupt then corrupt_csv csv else csv in
  let conserved, vanished = conservation ~sched:sp.sched m ~queued:sched.queue_length in
  let problems =
    conserved
    @
    match skip with
    | Some k when Core.Skip_stats.reference_slots k > 0 || not (Core.Skip_stats.compressed k) ->
        [ Printf.sprintf "fast path degenerated: %d reference slots"
            (Core.Skip_stats.reference_slots k) ]
    | _ -> []
  in
  {
    setup_ns = c1 - c0;
    run_ns = [| r1 - r0 |];
    sample_ns = [||];
    rest_ns = c3 - r1;
    csv;
    json;
    homes = None;
    xray_bytes = 0;
    problems;
    vanished;
    build_minor_words = w1 -. w0;
    run_minor_words = w3 -. w2;
    run_gc = (g0, g1);
    counters;
    skip;
    facts = None;
  }

let counter_value ins name =
  match J.member "instruments" (Wfs_obs.Instruments.to_json ins) with
  | Some (J.Arr items) ->
      List.fold_left
        (fun acc it ->
          match (J.member "name" it, J.member "count" it) with
          | Some (J.Str n), Some (J.Int c) when String.equal n name -> acc + c
          | _ -> acc)
        0 items
  | _ -> 0

(* Untimed topology run used by the reference-prefix check. *)
let topo_artifact ~fast (sp : Spec.t) =
  let t = Topology.of_spec ~fast_path:fast sp in
  Topology.run ~jobs:1 t;
  metrics_json (Topology.metrics t)
  ^ String.concat "," (Array.to_list (Array.map string_of_int (Topology.homes t)))
  ^ string_of_int (Topology.handoffs t)

let xray_paths ctx s =
  let stem = Filename.concat ctx.workdir (Printf.sprintf "session%d" s.index) in
  (stem ^ ".causality.jsonl", stem ^ ".windows.jsonl")

let read_file path = In_channel.with_open_bin path In_channel.input_all
let file_size path = String.length (read_file path)

let exec_topo ctx (s : session) =
  let span name f = Tracer.span ctx.tr name f in
  let c0 = now_ns () in
  let sp = span "spec.parse" (fun () -> parse s.text) in
  let cells = match sp.topo with Some tp -> tp.cells | None -> 1 in
  let w0 = Gc.minor_words () in
  let cause = Causality.create () in
  (* The latest scheduler of every cell, captured for the conservation
     check.  The probe builder returns [None], so the fast path stays on. *)
  let latest = Array.make cells None in
  let tap =
    {
      Wfs_topo.Cell.on_roster =
        (fun ~cell ~slot:_ ~gids -> if Array.length gids = 0 then latest.(cell) <- None);
      probe =
        (fun ~cell ~n_flows sched ->
          latest.(cell) <- Some (n_flows, sched);
          None);
      on_carry =
        (fun ~cell ~slot ~gid ~carried ~accepted ->
          Causality.record cause (Causality.Carry { slot; flow = gid; cell; carried; accepted }));
    }
  in
  let t =
    span "topo.build" (fun () ->
        Topology.of_spec ~fast_path:s.fast ~tap ~causality:cause sp)
  in
  let windows = Windowed.create ~weights:(Topology.weights t) ~window:metro_window in
  let w1 = Gc.minor_words () in
  let c1 = now_ns () in
  let epoch_ns = ref [] and sample_ns = ref [] in
  let g0 = Gc.quick_stat () in
  let w2 = Gc.minor_words () in
  let r0 = now_ns () in
  let last = ref r0 in
  let on_barrier ~slot =
    let b0 = now_ns () in
    Tracer.record ctx.tr "topo.epoch" ~start_ns:!last ~end_ns:b0;
    epoch_ns := (b0 - !last) :: !epoch_ns;
    span "xray.sample" (fun () ->
        Windowed.observe windows ~slot:(slot - 1) ~metrics:(Topology.peek_metrics t));
    last := now_ns ();
    sample_ns := (!last - b0) :: !sample_ns
  in
  span "topo.run" (fun () -> Topology.run ~jobs:1 ~on_barrier t);
  let r1 = now_ns () in
  let w3 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let run_ns = Array.of_list (List.rev ((r1 - !last) :: !epoch_ns)) in
  let m, ins =
    span "topo.merge" (fun () -> (Topology.metrics t, Topology.instruments t))
  in
  span "xray.sample" (fun () -> Windowed.flush windows ~slot:(sp.horizon - 1) ~metrics:m);
  let homes = Topology.homes t in
  let csv, json =
    span "out.serialize" (fun () -> (render_rows ~homes sp m, metrics_json m))
  in
  let events = Causality.events cause in
  let wins = Windowed.windows windows in
  let cpath, wpath = xray_paths ctx s in
  span "xray.write" (fun () ->
      Causality.write ~path:cpath events;
      Windowed.write ~path:wpath ~window:metro_window wins);
  let c3 = now_ns () in
  let csv = if ctx.corrupt then corrupt_csv csv else csv in
  (* A cell's schedulers number its members densely in ascending global
     id, so a flow's local id is its rank among the flows homed with it. *)
  let local = Array.make (Array.length homes) 0 in
  let rank = Array.make cells 0 in
  Array.iteri
    (fun gid h ->
      local.(gid) <- rank.(h);
      rank.(h) <- rank.(h) + 1)
    homes;
  let queued gid =
    match latest.(homes.(gid)) with
    | Some (n, sched) when local.(gid) < n ->
        sched.Core.Wireless_sched.queue_length local.(gid)
    | _ -> 0
  in
  let problems, vanished = conservation ~sched:sp.sched m ~queued in
  {
    setup_ns = c1 - c0;
    run_ns;
    sample_ns = Array.of_list (List.rev !sample_ns);
    rest_ns = c3 - r1;
    csv;
    json;
    homes = Some homes;
    xray_bytes = file_size cpath + file_size wpath;
    problems;
    vanished;
    build_minor_words = w1 -. w0;
    run_minor_words = w3 -. w2;
    run_gc = (g0, g1);
    counters = None;
    skip = None;
    facts =
      Some
        {
          epochs = counter_value ins "topo.epochs";
          handoffs = Topology.handoffs t;
          rebuilds = counter_value ins "topo.rebuilds";
          events = List.length events;
          windows = List.length wins;
        };
  }

let exec ctx s ~traced = if s.topo then exec_topo ctx s else exec_cell ctx s ~traced

(* [load] then [write] must give back the file's bytes. *)
let reloads ~load ~write path =
  match load ~path with
  | Error _ -> false
  | Ok x ->
      let copy = path ^ ".reload" in
      write ~path:copy x;
      let same = String.equal (read_file path) (read_file copy) in
      Sys.remove copy;
      same

(* The checks that run extra simulations or reread files, run once on the
   checked pass's artifacts after the heap has been measured. *)
let deep_check ctx (s : session) (out : outcome) =
  let sp = parse s.text in
  let d = dims ctx.size in
  let fast_matches artifact ~prefix =
    let sp = Spec.with_horizon (min sp.horizon prefix) sp in
    if String.equal (artifact ~fast:true sp) (artifact ~fast:false sp) then []
    else [ "fast path differs from the reference loop on the prefix" ]
  in
  round_trip ~render:(render_rows ?homes:out.homes sp) ~csv:out.csv ~json:out.json
  @
  if s.topo then
    let cpath, wpath = xray_paths ctx s in
    (if reloads ~load:Causality.load ~write:Causality.write cpath then []
     else [ "causality log does not load back to its bytes" ])
    @ (if
         reloads ~load:Windowed.load
           ~write:(fun ~path (c : Windowed.contents) -> Windowed.write ~path ~window:c.window c.windows)
           wpath
       then []
       else [ "window stream does not load back to its bytes" ])
    @ fast_matches topo_artifact ~prefix:d.topo_prefix
  else if s.fast then fast_matches cell_artifact ~prefix:d.cell_prefix
  else []

(* --- Golden check --------------------------------------------------------

   At the golden parameters (seed 42, 20 000 slots) every example's CSV must
   be byte-identical to test/golden/example<k>.csv.  Returns the groups that
   differ, with the reason. *)
let golden_groups = List.init 6 (fun k -> Printf.sprintf "example%d" (k + 1))

let golden_check ~(sessions : session array) ~(csv : int -> string) =
  List.filter_map
    (fun group ->
      let path = Printf.sprintf "test/golden/%s.csv" group in
      let actual =
        csv_header
        ^ String.concat ""
            (Array.to_list sessions
            |> List.filter (fun s -> String.equal s.group group)
            |> List.map (fun s -> csv s.index))
      in
      match In_channel.with_open_bin path In_channel.input_all with
      | expected when String.equal expected actual -> None
      | _ -> Some (group, path ^ " differs from the run's CSV")
      | exception Sys_error msg -> Some (group, msg))
    golden_groups
