(* Multi-cell topology: spec grammar round-trip (old and new forms,
   including fault plans), zero-mobility byte-identity against independent
   single-cell runs, handoff carry preservation within the Section 5 /
   Section 7 bounds, jobs-invariance of the sharded lockstep loop (clean
   and under chaos), graceful degradation under fault plans, and the
   Topo_journal kill/resume protocol. *)

module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Topology = Wfs_topo.Topology
module Cell = Wfs_topo.Cell
module Topo_journal = Wfs_topo.Topo_journal
module Chaos = Wfs_chaos.Chaos
module M = Wfs_core.Metrics
module Sched = Wfs_core.Wireless_sched
module Registry = Wfs_core.Registry
module Json = Wfs_util.Json
module Error = Wfs_util.Error

(* --- Spec grammar: qcheck round-trip over old and new forms --- *)

let scenario_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun n sum -> Spec.example ?sum n)
            (1 -- 2)
            (opt (float_range 0.1 1.0)) );
        (3, map (fun n -> Spec.example n) (3 -- 6));
        ( 1,
          map
            (fun p -> Spec.file p)
            (oneofl
               [ "examples/cell.scenario"; "a/b.scenario"; "deep/nested path.scn" ])
        );
      ])

let faults_gen =
  QCheck.Gen.(
    map3
      (fun (crash, recover) ((lose, corrupt), (blackout, blackout_len))
           (exn, (persist, budget)) ->
        Spec.faults ~crash ~recover ~lose ~corrupt ~blackout ~blackout_len
          ~exn ~persist ~budget ())
      (pair (float_range 0. 1.) (float_range 0. 1.))
      (pair
         (pair (float_range 0. 1.) (float_range 0. 1.))
         (pair (float_range 0. 1.) (1 -- 500)))
      (pair (float_range 0. 1.) (pair (float_range 0. 1.) (0 -- 8))))

let topo_gen =
  QCheck.Gen.(
    map2
      (fun (cells, (mobility, epoch)) faults ->
        let tp = Spec.topo ~cells ~mobility ~epoch in
        match faults with Some p -> Spec.with_faults p tp | None -> tp)
      (pair (1 -- 64) (pair (float_range 0. 1.) (1 -- 10_000)))
      (opt faults_gen))

let spec_gen =
  QCheck.Gen.(
    map
      (fun ((scenario, sched), ((seed, horizon), topo)) ->
        { Spec.scenario; sched; seed; horizon; topo })
      (pair
         (pair scenario_gen
            (oneofl [ "WPS"; "SwapA-P"; "IWFQ-I"; "CIF-Q"; "CSDPS" ]))
         (pair (pair (0 -- 1_000_000) (1 -- 1_000_000)) (opt topo_gen))))

let prop_spec_roundtrip =
  QCheck.Test.make
    ~name:"spec string form round-trips, with and without a topology clause"
    ~count:500 (QCheck.make spec_gen) (fun sp ->
      match Spec.of_string (Spec.to_string sp) with
      | Ok sp' -> Spec.equal sp sp'
      | Error _ -> false)

let test_old_grammar_unchanged () =
  (* A pre-topology spec string parses to topo = None and re-serializes
     without a 5th field. *)
  let s = "example:1?sum=0.5 | WPS | seed=7 | horizon=50000" in
  match Spec.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sp ->
      Alcotest.(check bool) "no topo" true (sp.Spec.topo = None);
      Alcotest.(check string) "round-trip" s (Spec.to_string sp)

let test_topo_clause_parses () =
  let s = "example:1 | WPS | seed=42 | horizon=20000 | cells=4,mobility=0.01,epoch=500" in
  match Spec.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sp -> (
      match sp.Spec.topo with
      | None -> Alcotest.fail "expected a topology clause"
      | Some tp ->
          Alcotest.(check int) "cells" 4 tp.Spec.cells;
          Alcotest.(check (float 0.)) "mobility" 0.01 tp.Spec.mobility;
          Alcotest.(check int) "epoch" 500 tp.Spec.epoch;
          Alcotest.(check string) "round-trip" s (Spec.to_string sp))

let test_topo_clause_rejects () =
  let bad =
    [
      "example:1 | WPS | seed=1 | horizon=10 | cells=0,mobility=0,epoch=5";
      "example:1 | WPS | seed=1 | horizon=10 | cells=2,mobility=1.5,epoch=5";
      "example:1 | WPS | seed=1 | horizon=10 | cells=2,epoch=5,mobility=0";
      "example:1 | WPS | seed=1 | horizon=10 | bogus";
    ]
  in
  List.iter
    (fun s ->
      match Spec.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed clause: %s" s
      | Error _ -> ())
    bad

let test_faults_clause_parses () =
  let s =
    "example:1 | WPS | seed=42 | horizon=20000 | \
     cells=4,mobility=0.01,epoch=500,faults=crash:0.01;recover:0.5;lose:0.05;corrupt:0.05;blackout:0.02x250;exn:0.01;persist:0.25;budget:1"
  in
  match Spec.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sp -> (
      match sp.Spec.topo with
      | None -> Alcotest.fail "expected a topology clause"
      | Some tp -> (
          match tp.Spec.faults with
          | None -> Alcotest.fail "expected a fault plan"
          | Some p ->
              Alcotest.(check (float 0.)) "crash" 0.01 p.Spec.crash;
              Alcotest.(check (float 0.)) "recover" 0.5 p.Spec.recover;
              Alcotest.(check int) "blackout_len" 250 p.Spec.blackout_len;
              Alcotest.(check int) "budget" 1 p.Spec.budget;
              Alcotest.(check bool) "active" true (Spec.faults_active p);
              Alcotest.(check string) "round-trip" s (Spec.to_string sp)))

let test_faults_clause_rejects () =
  let base =
    "example:1 | WPS | seed=1 | horizon=10 | cells=2,mobility=0,epoch=5,faults="
  in
  List.iter
    (fun plan ->
      match Spec.of_string (base ^ plan) with
      | Ok _ -> Alcotest.failf "accepted malformed fault plan: %s" plan
      | Error _ -> ())
    [
      "crash:0.5";
      "crash:2;recover:0;lose:0;corrupt:0;blackout:0x1;exn:0;persist:0;budget:0";
      "recover:0;crash:0;lose:0;corrupt:0;blackout:0x1;exn:0;persist:0;budget:0";
      "crash:0;recover:0;lose:0;corrupt:0;blackout:0x0;exn:0;persist:0;budget:0";
      "crash:0;recover:0;lose:0;corrupt:0;blackout:0x1;exn:0;persist:0;budget:-1";
    ]

let test_inert_plan_is_inactive () =
  Alcotest.(check bool) "all-zero plan is inert" false
    (Spec.faults_active (Spec.faults ()));
  Alcotest.(check bool) "recover alone does not activate" false
    (Spec.faults_active (Spec.faults ~recover:1.0 ~budget:3 ()));
  Alcotest.(check bool) "any injection rate activates" true
    (Spec.faults_active (Spec.faults ~lose:0.01 ()))

(* --- Zero-mobility byte-identity: the lockstep anchor --- *)

let check_flow_equal ~msg solo ~flow m ~gid =
  let pairs =
    [
      ("arrivals", float_of_int (M.arrivals solo ~flow), float_of_int (M.arrivals m ~flow:gid));
      ("delivered", float_of_int (M.delivered solo ~flow), float_of_int (M.delivered m ~flow:gid));
      ("dropped", float_of_int (M.dropped solo ~flow), float_of_int (M.dropped m ~flow:gid));
      ("mean", M.mean_delay solo ~flow, M.mean_delay m ~flow:gid);
      ("max", M.max_delay solo ~flow, M.max_delay m ~flow:gid);
      ("stddev", M.stddev_delay solo ~flow, M.stddev_delay m ~flow:gid);
    ]
  in
  List.for_all
    (fun (what, a, b) ->
      let ok = a = b in
      if not ok then
        Printf.eprintf "%s: flow %d gid %d %s: %g <> %g\n" msg flow gid what a b;
      ok)
    pairs

let prop_zero_mobility_identity =
  QCheck.Test.make
    ~name:
      "zero-mobility 2-cell topology is identical to two independent \
       single-cell runs"
    ~count:6
    (QCheck.make
       QCheck.Gen.(
         pair
           (oneofl [ "SwapA-P"; "CIF-Q-P"; "WRR-I" ])
           (pair (0 -- 1000) (50 -- 400))))
    (fun (sched, (seed, epoch)) ->
      let horizon = 2_000 in
      let spec =
        Spec.make ~seed ~horizon
          ~topo:(Spec.topo ~cells:2 ~mobility:0. ~epoch)
          ~sched (Spec.example 1)
      in
      let t = Topology.of_spec spec in
      Topology.run ~jobs:2 t;
      let m = Topology.metrics t in
      let base = { spec with Spec.topo = None } in
      List.for_all
        (fun cell ->
          let solo =
            Exec.run (Spec.with_seed (Topology.cell_seed ~seed ~cell) base)
          in
          let k = M.n_flows solo in
          List.for_all
            (fun f ->
              check_flow_equal ~msg:"zero-mobility" solo ~flow:f m
                ~gid:((cell * k) + f))
            (List.init k Fun.id))
        [ 0; 1 ])

(* --- Forced handoffs: carry survives within the paper's bounds --- *)

let test_full_mobility_completes () =
  (* mobility 1.0 with 2 cells: every flow hands off at every barrier.
     The ledger check in Cell.rebuild validates each import; after an odd
     number of barriers every flow sits in the opposite cell. *)
  let spec =
    Spec.make ~seed:3 ~horizon:2_000
      ~topo:(Spec.topo ~cells:2 ~mobility:1.0 ~epoch:100)
      ~sched:"SwapA-P" (Spec.example 1)
  in
  let t = Topology.of_spec spec in
  Topology.run t;
  let barriers = 19 in
  Alcotest.(check int) "handoffs" (4 * barriers) (Topology.handoffs t);
  Alcotest.(check (array int)) "all flows swapped cells" [| 1; 1; 0; 0 |]
    (Topology.homes t)

let test_wps_credit_carry () =
  (* Export out of a live WPS cell: Section 7 bounds the carried credit to
     the paper's default [-4, 4]; re-admitting into another cell with the
     same caps must accept it verbatim (carried = accepted, nothing
     truncated), and a re-export returns the same balance. *)
  let entry = Registry.get "SwapA-P" in
  let setups = Wfs_core.Presets.example1 ~seed:5 () in
  let members =
    Array.to_list (Array.mapi (fun i s -> { Cell.gid = i; setup = s }) setups)
  in
  let c0 = Cell.create ~id:0 ~sched:entry ~horizon:4_000 members in
  Cell.advance c0 ~until:1_500;
  let parcels = Cell.dissolve c0 in
  List.iter
    (fun p ->
      let c = p.Cell.carry.Sched.credit in
      Alcotest.(check bool) "credit within Section 7 caps" true
        (c >= -4 && c <= 4);
      Alcotest.(check (float 0.)) "wps carries no lag" 0. p.Cell.carry.Sched.lag)
    parcels;
  let c1 = Cell.create ~id:1 ~sched:entry ~horizon:4_000 [] in
  let moved = List.map (fun p -> { p with Cell.moved = true }) parcels in
  ignore (Cell.rebuild c1 ~slot:1_500 moved);
  let parcels' = Cell.dissolve c1 in
  List.iter2
    (fun p p' ->
      Alcotest.(check int) "credit survives the handoff"
        p.Cell.carry.Sched.credit p'.Cell.carry.Sched.credit)
    parcels parcels'

let test_wps_import_clamps () =
  (* An over-cap carry is clamped, and the accepted value is what import
     reports (carried = accepted + truncated). *)
  let flows =
    Array.init 2 (fun id -> Wfs_core.Params.flow ~id ~weight:1. ())
  in
  let entry = Registry.get "SwapA-P" in
  let sched =
    entry.Registry.make ~credit_limit:4 ~debit_limit:4 flows
  in
  let h = Option.get sched.Sched.handoff in
  let acc = h.Sched.import ~flow:0 { Sched.lag = 0.; credit = 9 } in
  Alcotest.(check int) "credit clamped to +cap" 4 acc.Sched.credit;
  let acc' = h.Sched.import ~flow:1 { Sched.lag = 0.; credit = -9 } in
  Alcotest.(check int) "debit clamped to -cap" (-4) acc'.Sched.credit;
  Alcotest.(check int) "export returns the accepted balance" 4
    (h.Sched.export ~flow:0).Sched.credit

let test_cifq_lag_carry () =
  (* CIF-Q rounds the virtual-time-denominated lag to its integral
     accounting; export then returns exactly what was accepted. *)
  let flows =
    Array.init 2 (fun id -> Wfs_core.Params.flow ~id ~weight:1. ())
  in
  let entry = Registry.get "CIF-Q-P" in
  let sched = entry.Registry.make flows in
  let h = Option.get sched.Sched.handoff in
  let acc = h.Sched.import ~flow:0 { Sched.lag = 2.4; credit = 0 } in
  Alcotest.(check (float 0.)) "lag rounds to integral" 2. acc.Sched.lag;
  Alcotest.(check (float 0.)) "re-export returns the accepted lag" 2.
    (h.Sched.export ~flow:0).Sched.lag;
  Alcotest.(check int) "cifq carries no credit" 0 acc.Sched.credit

(* --- Sharding: jobs-invariance of a mobile multi-cell run --- *)

let test_jobs_invariance () =
  let spec =
    Spec.of_string_exn
      "example:2 | WPS | seed=11 | horizon=6000 | cells=4,mobility=0.05,epoch=200"
  in
  let run jobs =
    let t = Topology.of_spec spec in
    Topology.run ~jobs t;
    ( Wfs_util.Json.to_string (M.to_json (Topology.metrics t)),
      Topology.homes t,
      Topology.handoffs t,
      Wfs_util.Json.to_string
        (Wfs_obs.Instruments.to_json (Topology.instruments t)) )
  in
  let m1, h1, n1, i1 = run 1 in
  let m2, h2, n2, i2 = run 2 in
  let m4, h4, n4, i4 = run 4 in
  Alcotest.(check string) "metrics jobs 1=2" m1 m2;
  Alcotest.(check string) "metrics jobs 2=4" m2 m4;
  Alcotest.(check (array int)) "homes jobs 1=2" h1 h2;
  Alcotest.(check (array int)) "homes jobs 2=4" h2 h4;
  Alcotest.(check int) "handoffs jobs 1=2" n1 n2;
  Alcotest.(check int) "handoffs jobs 2=4" n2 n4;
  Alcotest.(check string) "instruments jobs 1=2" i1 i2;
  Alcotest.(check string) "instruments jobs 2=4" i2 i4

(* --- Barrier sampling: pinned bytes of every peek on a mobile topology --- *)

(* perfbench's metro cell (test/golden/topo_cell.scenario) as 8 cells with
   mobility 0.2 and epoch 100: almost every flow has lived in several
   cells by the end, so each peek merges many cell banks into one flow's
   row, and a change to the order of those merges changes the floats. *)
let metro_cell =
  "flow weight=1 drop=retx:2    source=poisson:0.15 channel=ge:0.07,0.03\n\
   flow weight=1 drop=retx:2    source=mmpp:0.1     channel=ge:0.07,0.03\n\
   flow weight=2 drop=delay:200 source=poisson:0.2  channel=bernoulli:0.9\n\
   flow weight=1                source=cbr:10       channel=good\n"

(* One digest over the full-precision JSON of [Topology.peek_metrics] at
   every barrier and of the final metrics.  With [~histograms:true] every
   row carries a histogram, so [Metrics.absorb]'s empty-row rule takes its
   other branch.  The digests were taken before cells kept compact banks. *)
let test_peek_digests () =
  let path = Filename.temp_file "wfs_metro" ".scenario" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc metro_cell);
      List.iter
        (fun (sched, histograms, expected) ->
          let spec =
            Spec.make ~seed:7 ~horizon:3_000
              ~topo:(Spec.topo ~cells:8 ~mobility:0.2 ~epoch:100)
              ~sched (Spec.file path)
          in
          let t = Topology.of_spec ~histograms spec in
          let seen = Buffer.create 1024 in
          let note m =
            Buffer.add_string seen
              (Digest.string (Json.to_string ~pretty:false (M.to_json m)))
          in
          Topology.run t ~on_barrier:(fun ~slot:_ ->
              note (Topology.peek_metrics t));
          note (Topology.metrics t);
          Alcotest.(check string)
            (Printf.sprintf "%s histograms=%b" sched histograms)
            expected
            (Digest.to_hex (Digest.string (Buffer.contents seen))))
        [
          ("SwapA-P", false, "f0b198f6d331fb920b3948c1c2112fe0");
          ("SwapA-P", true, "37857dd1089dab705e3079aa54e54a05");
          ("CIF-Q-P", false, "a08484186c3452a27ca1620008c76b48");
          ("CIF-Q-P", true, "a213f4996c6de3fb62d75b7e273f0753");
          ("IWFQ-P", false, "685c131b088715ca50b14444d3bd3919");
          ("IWFQ-P", true, "9514422cd4653c0feac65109c29fb678");
          ("CSDPS", false, "6347aa92a5442947db5a526c925fbc73");
          ("CSDPS", true, "02d1ad3b7880bd6ac9b745caa126f79a");
        ])

(* --- Chaos: degradation, jobs-invariance, budget, inert identity --- *)

let faulted_spec_str =
  "example:2 | SwapA-P | seed=11 | horizon=6000 | \
   cells=4,mobility=0.05,epoch=200,faults=crash:0.1;recover:0.5;lose:0.2;corrupt:0.2;blackout:0.1x80;exn:0.1;persist:0.3;budget:4"

let run_faulted ~jobs spec =
  let t = Topology.of_spec spec in
  Topology.run ~jobs t;
  t

let test_chaos_degradation () =
  let t = run_faulted ~jobs:2 (Spec.of_string_exn faulted_spec_str) in
  Alcotest.(check bool) "chaos engaged" true (Topology.chaos_active t);
  let timeline = Topology.fault_timeline t in
  Alcotest.(check bool) "faults fired" true (timeline <> []);
  let crashes =
    List.length
      (List.filter
         (fun ev ->
           match ev.Chaos.fault with Chaos.Cell_crash _ -> true | _ -> false)
         timeline)
  in
  Alcotest.(check bool) "at least one cell crashed" true (crashes >= 1);
  (* Degradation, not collapse: the run finished, every flow has a home,
     and the global metrics row set is intact. *)
  Array.iter
    (fun home ->
      Alcotest.(check bool) "home in range" true (home >= 0 && home < 4))
    (Topology.homes t);
  Alcotest.(check int) "all flows accounted" (Topology.n_flows t)
    (M.n_flows (Topology.metrics t));
  match Topology.chaos_instruments t with
  | None -> Alcotest.fail "active plan must expose chaos instruments"
  | Some reg ->
      Alcotest.(check bool) "chaos registry populated" true
        (Wfs_obs.Instruments.size reg > 0)

let test_chaos_jobs_invariance () =
  let spec = Spec.of_string_exn faulted_spec_str in
  let run jobs =
    let t = run_faulted ~jobs spec in
    ( Json.to_string (M.to_json (Topology.metrics t)),
      Topology.homes t,
      Topology.handoffs t,
      Json.to_string
        (Wfs_obs.Instruments.to_json (Topology.instruments t)),
      Json.to_string
        (Wfs_obs.Instruments.to_json
           (Option.get (Topology.chaos_instruments t))),
      Json.to_string (Json.Arr (List.map Chaos.event_to_json (Topology.fault_timeline t))) )
  in
  let m1, h1, n1, i1, c1, t1 = run 1 in
  let m2, h2, n2, i2, c2, t2 = run 2 in
  let m4, h4, n4, i4, c4, t4 = run 4 in
  Alcotest.(check string) "metrics jobs 1=2" m1 m2;
  Alcotest.(check string) "metrics jobs 2=4" m2 m4;
  Alcotest.(check (array int)) "homes jobs 1=2" h1 h2;
  Alcotest.(check (array int)) "homes jobs 2=4" h2 h4;
  Alcotest.(check int) "handoffs jobs 1=2" n1 n2;
  Alcotest.(check int) "handoffs jobs 2=4" n2 n4;
  Alcotest.(check string) "instruments jobs 1=2" i1 i2;
  Alcotest.(check string) "instruments jobs 2=4" i2 i4;
  Alcotest.(check string) "chaos instruments jobs 1=2" c1 c2;
  Alcotest.(check string) "chaos instruments jobs 2=4" c2 c4;
  Alcotest.(check string) "fault timeline jobs 1=2" t1 t2;
  Alcotest.(check string) "fault timeline jobs 2=4" t2 t4

let test_chaos_budget_refuses () =
  let spec =
    Spec.of_string_exn
      "example:1 | SwapA-P | seed=5 | horizon=1000 | \
       cells=2,mobility=0,epoch=100,faults=crash:0;recover:0;lose:0;corrupt:0;blackout:0x1;exn:1;persist:1;budget:0"
  in
  let t = Topology.of_spec spec in
  match Topology.run ~jobs:2 t with
  | () -> Alcotest.fail "persistent faults over budget must refuse the run"
  | exception Error.Error e ->
      Alcotest.(check bool) "budget breach is sim-fault" true
        (e.Error.kind = Error.Sim_fault);
      Alcotest.(check string) "raised by the topology" "Wfs_topo.Topology"
        e.Error.who;
      Alcotest.(check bool) "fault timeline attached" true
        (List.mem_assoc "chaos-timeline" e.Error.context)

let test_inert_plan_identity () =
  let base =
    Spec.of_string_exn
      "example:2 | WPS | seed=11 | horizon=4000 | cells=3,mobility=0.05,epoch=200"
  in
  let inert =
    let tp = Option.get base.Spec.topo in
    Spec.with_topo (Spec.with_faults (Spec.faults ~recover:0.5 ~budget:2 ()) tp) base
  in
  let run spec =
    let t = Topology.of_spec spec in
    Topology.run ~jobs:2 t;
    ( Json.to_string (M.to_json (Topology.metrics t)),
      Json.to_string
        (Wfs_obs.Instruments.to_json (Topology.instruments t)),
      Topology.chaos_active t )
  in
  let m0, i0, a0 = run base in
  let m1, i1, a1 = run inert in
  Alcotest.(check bool) "no plan: chaos off" false a0;
  Alcotest.(check bool) "inert plan: chaos off" false a1;
  Alcotest.(check string) "metrics identical" m0 m1;
  Alcotest.(check string) "instruments identical" i0 i1

(* --- Topo_journal: schema, torn tail, corruption, kill/resume --- *)

let with_temp_journal f =
  let path = Filename.temp_file "wfs_topo" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let tj_params = [ ("credit", Json.Int 4); ("invariants", Json.Bool false) ]

let test_topo_journal_roundtrip () =
  with_temp_journal (fun path ->
      let w = Topo_journal.create ~path ~params:tj_params in
      Topo_journal.append_snapshot w ~spec:"s1" ~slot:100 (Json.Int 1);
      Topo_journal.append_snapshot w ~spec:"s1" ~slot:200 (Json.Int 2);
      Topo_journal.append_result w ~spec:"s1" (Json.Str "done");
      Topo_journal.close w;
      let w = Topo_journal.reopen ~path in
      Topo_journal.append_snapshot w ~spec:"s2" ~slot:100 (Json.Int 3);
      Topo_journal.close w;
      match Topo_journal.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e)
      | Ok c ->
          Alcotest.(check bool) "params survive" true (c.Topo_journal.params = tj_params);
          Alcotest.(check bool) "snapshot found" true
            (Topo_journal.find_snapshot c ~spec:"s1" ~slot:200 = Some (Json.Int 2));
          Alcotest.(check bool) "result found" true
            (Topo_journal.find_result c ~spec:"s1" = Some (Json.Str "done"));
          Alcotest.(check bool) "interrupted spec has no result" true
            (Topo_journal.find_result c ~spec:"s2" = None);
          Alcotest.(check bool) "second spec's snapshot found" true
            (Topo_journal.find_snapshot c ~spec:"s2" ~slot:100 = Some (Json.Int 3)))

let test_topo_journal_torn_tail () =
  with_temp_journal (fun path ->
      let w = Topo_journal.create ~path ~params:tj_params in
      Topo_journal.append_snapshot w ~spec:"s" ~slot:100 (Json.Int 1);
      Topo_journal.close w;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"key\":\"s #epoch:200\",\"val";
      close_out oc;
      match Topo_journal.load ~path with
      | Error e ->
          Alcotest.failf "torn tail must load: %s" (Error.to_string e)
      | Ok c ->
          Alcotest.(check bool) "only the torn barrier is lost" true
            (Topo_journal.find_snapshot c ~spec:"s" ~slot:200 = None);
          Alcotest.(check bool) "earlier barrier survives" true
            (Topo_journal.find_snapshot c ~spec:"s" ~slot:100 = Some (Json.Int 1)))

let test_topo_journal_corruption_rejected () =
  with_temp_journal (fun path ->
      let w = Topo_journal.create ~path ~params:tj_params in
      Topo_journal.append_snapshot w ~spec:"s" ~slot:100 (Json.Int 1);
      Topo_journal.close w;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage\n{\"key\":\"s #epoch:200\",\"value\":2}\n";
      close_out oc;
      match Topo_journal.load ~path with
      | Ok _ -> Alcotest.fail "mid-file corruption accepted"
      | Error e ->
          Alcotest.(check bool) "corruption is bad-spec" true
            (e.Error.kind = Error.Bad_spec))

let test_topo_journal_rejects_foreign_schema () =
  with_temp_journal (fun path ->
      (* A generic bench journal (default schema) must be refused. *)
      let w = Wfs_runner.Journal.create ~path ~params:tj_params () in
      Wfs_runner.Journal.append w ~key:"s #epoch:100" ~value:(Json.Int 1);
      Wfs_runner.Journal.close w;
      match Topo_journal.load ~path with
      | Ok _ -> Alcotest.fail "foreign schema accepted"
      | Error e ->
          Alcotest.(check bool) "schema mismatch is bad-spec" true
            (e.Error.kind = Error.Bad_spec))

let test_topo_journal_rejects_untagged_key () =
  with_temp_journal (fun path ->
      let w =
        Wfs_runner.Journal.create ~schema:Topo_journal.schema ~path
          ~params:tj_params ()
      in
      Wfs_runner.Journal.append w ~key:"no tag here" ~value:(Json.Int 1);
      Wfs_runner.Journal.close w;
      match Topo_journal.load ~path with
      | Ok _ -> Alcotest.fail "untagged key accepted"
      | Error e ->
          Alcotest.(check string) "typed by the loader" "Topo_journal.load"
            e.Error.who)

(* Kill-at-an-arbitrary-epoch, then resume: the resumed journal must be
   byte-identical to an uninterrupted run's, with every already-journaled
   barrier verified against the replay rather than trusted. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

exception Killed

let journal_run ~path ~jobs ?kill_after spec =
  let key = Spec.to_string spec in
  let t = Topology.of_spec spec in
  let w = Topo_journal.create ~path ~params:tj_params in
  let barriers = ref 0 in
  let killed =
    match
      Topology.run ~jobs
        ~on_barrier:(fun ~slot ->
          Topo_journal.append_snapshot w ~spec:key ~slot
            (Topology.snapshot t ~slot);
          incr barriers;
          match kill_after with
          | Some k when !barriers >= k -> raise Killed
          | _ -> ())
        t
    with
    | () -> false
    | exception Killed -> true
  in
  if not killed then
    Topo_journal.append_result w ~spec:key (M.to_json (Topology.metrics t));
  Topo_journal.close w;
  killed

let resume_run ~path ~jobs spec =
  let key = Spec.to_string spec in
  let contents =
    match Topo_journal.load ~path with
    | Ok c -> c
    | Error e -> Alcotest.failf "resume load failed: %s" (Error.to_string e)
  in
  let w = Topo_journal.reopen ~path in
  let t = Topology.of_spec spec in
  Topology.run ~jobs
    ~on_barrier:(fun ~slot ->
      let snap = Topology.snapshot t ~slot in
      match Topo_journal.find_snapshot contents ~spec:key ~slot with
      | Some j ->
          Alcotest.(check string)
            (Printf.sprintf "journaled barrier %d verified" slot)
            (Json.to_string j) (Json.to_string snap)
      | None -> Topo_journal.append_snapshot w ~spec:key ~slot snap)
    t;
  Topo_journal.append_result w ~spec:key (M.to_json (Topology.metrics t));
  Topo_journal.close w

let prop_kill_resume_identity =
  QCheck.Test.make
    ~name:
      "a run killed at any epoch resumes to a byte-identical journal \
       (faulted, cross-jobs)"
    ~count:5
    (QCheck.make QCheck.Gen.(pair (1 -- 28) (oneofl [ 1; 2; 4 ])))
    (fun (kill_after, resume_jobs) ->
      let spec = Spec.of_string_exn faulted_spec_str in
      with_temp_journal (fun full_path ->
          with_temp_journal (fun killed_path ->
              ignore (journal_run ~path:full_path ~jobs:2 spec);
              let killed =
                journal_run ~path:killed_path ~jobs:2 ~kill_after spec
              in
              (* 29 barriers in a 6000-slot horizon at epoch 200; every
                 generated kill point interrupts the run. *)
              if not killed then
                Alcotest.failf "kill point %d did not interrupt" kill_after;
              resume_run ~path:killed_path ~jobs:resume_jobs spec;
              let a = read_file full_path and b = read_file killed_path in
              if not (String.equal a b) then
                QCheck.Test.fail_reportf
                  "resumed journal diverges (killed after %d barriers, \
                   resumed with jobs=%d)"
                  kill_after resume_jobs;
              true)))

(* A crash mid-append leaves a torn line.  Resuming must cut it off before
   appending, so the resumed journal is byte-identical to the uninterrupted
   run's and loads again on a second resume. *)
let test_torn_journal_resumes_twice () =
  let spec = Spec.of_string_exn faulted_spec_str in
  with_temp_journal (fun full_path ->
      with_temp_journal (fun torn_path ->
          ignore (journal_run ~path:full_path ~jobs:1 spec);
          let lines = String.split_on_char '\n' (read_file full_path) in
          let oc = open_out_bin torn_path in
          List.iteri (fun i l -> if i < 6 then output_string oc (l ^ "\n")) lines;
          output_string oc "{\"key\":\"torn";
          close_out oc;
          resume_run ~path:torn_path ~jobs:2 spec;
          Alcotest.(check bool) "resumed journal equals the uninterrupted one"
            true
            (String.equal (read_file full_path) (read_file torn_path));
          (* The second resume loads the journal and re-verifies every
             barrier against the replay. *)
          resume_run ~path:torn_path ~jobs:1 spec;
          Alcotest.(check bool) "journal still loads" true
            (Result.is_ok (Topo_journal.load ~path:torn_path))))

(* --- Dispatch guards --- *)

let test_exec_rejects_topo () =
  let spec =
    Spec.make ~seed:1 ~horizon:100
      ~topo:(Spec.topo ~cells:2 ~mobility:0. ~epoch:10)
      ~sched:"WPS" (Spec.example 1)
  in
  Alcotest.check_raises "Exec.run refuses topology specs"
    (Invalid_argument
       "Exec.run: spec has a topology clause; run it through \
        Wfs_topo.Topology") (fun () -> ignore (Exec.run spec))

let test_of_spec_requires_topo () =
  let spec = Spec.make ~seed:1 ~horizon:100 ~sched:"WPS" (Spec.example 1) in
  Alcotest.check_raises "Topology.of_spec needs a topology clause"
    (Invalid_argument "Topology.of_spec: spec has no topology clause")
    (fun () -> ignore (Topology.of_spec spec))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    Alcotest.test_case "old spec grammar parses unchanged" `Quick
      test_old_grammar_unchanged;
    Alcotest.test_case "topology clause parses and round-trips" `Quick
      test_topo_clause_parses;
    Alcotest.test_case "malformed topology clauses are rejected" `Quick
      test_topo_clause_rejects;
    Alcotest.test_case "fault plan clause parses and round-trips" `Quick
      test_faults_clause_parses;
    Alcotest.test_case "malformed fault plans are rejected" `Quick
      test_faults_clause_rejects;
    Alcotest.test_case "inert plans are inactive" `Quick
      test_inert_plan_is_inactive;
    QCheck_alcotest.to_alcotest prop_zero_mobility_identity;
    Alcotest.test_case "full-mobility run completes with exact handoff count"
      `Quick test_full_mobility_completes;
    Alcotest.test_case "wps credit survives a forced handoff" `Quick
      test_wps_credit_carry;
    Alcotest.test_case "wps import clamps to the Section 7 caps" `Quick
      test_wps_import_clamps;
    Alcotest.test_case "cifq lag carry rounds and re-exports" `Quick
      test_cifq_lag_carry;
    Alcotest.test_case "mobile multi-cell run is jobs-invariant" `Quick
      test_jobs_invariance;
    Alcotest.test_case "barrier peeks match pinned digests" `Quick
      test_peek_digests;
    Alcotest.test_case "faulted run degrades without collapsing" `Quick
      test_chaos_degradation;
    Alcotest.test_case "faulted multi-cell run is jobs-invariant" `Slow
      test_chaos_jobs_invariance;
    Alcotest.test_case "worker faults over budget refuse the run" `Quick
      test_chaos_budget_refuses;
    Alcotest.test_case "inert fault plan is byte-identical to no plan" `Quick
      test_inert_plan_identity;
    Alcotest.test_case "topo journal round-trip" `Quick
      test_topo_journal_roundtrip;
    Alcotest.test_case "topo journal torn tail dropped" `Quick
      test_topo_journal_torn_tail;
    Alcotest.test_case "topo journal mid-file corruption rejected" `Quick
      test_topo_journal_corruption_rejected;
    Alcotest.test_case "topo journal rejects a foreign schema" `Quick
      test_topo_journal_rejects_foreign_schema;
    Alcotest.test_case "topo journal rejects untagged keys" `Quick
      test_topo_journal_rejects_untagged_key;
    QCheck_alcotest.to_alcotest prop_kill_resume_identity;
    Alcotest.test_case "torn journal resumes twice" `Quick
      test_torn_journal_resumes_twice;
    Alcotest.test_case "exec rejects topology specs" `Quick
      test_exec_rejects_topo;
    Alcotest.test_case "of_spec requires a topology clause" `Quick
      test_of_spec_requires_topo;
  ]
