(* Tests for the wireline oracles: GPS fluid reference, WFQ/WF2Q/WF2Q+ tag
   machinery and Lemma-1 bounds. *)

module Flow = Wfs_wireline.Flow
module Job = Wfs_wireline.Job
module Gps = Wfs_wireline.Gps
module Server = Wfs_wireline.Server
module Rng = Wfs_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let job ~flow ~seq ~arrival ?(size = 1.) () = Job.make ~flow ~seq ~arrival ~size

(* --- GPS --- *)

let test_gps_equal_split () =
  (* Two equal flows, both backlogged: each gets half the capacity. *)
  let g = Gps.create ~capacity:1. (Flow.equal_weights 2) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:4.);
  ignore (Gps.arrive g ~time:0. ~flow:1 ~size:4.);
  Gps.advance_to g 4.;
  check_float "flow0 half" 2. (Gps.service g ~flow:0);
  check_float "flow1 half" 2. (Gps.service g ~flow:1)

let test_gps_weighted_split () =
  let g = Gps.create ~capacity:1. (Flow.of_weights [| 3.; 1. |]) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:10.);
  ignore (Gps.arrive g ~time:0. ~flow:1 ~size:10.);
  Gps.advance_to g 4.;
  check_float "3:1 split, flow0" 3. (Gps.service g ~flow:0);
  check_float "3:1 split, flow1" 1. (Gps.service g ~flow:1)

let test_gps_reclaims_idle_capacity () =
  (* When one flow drains, the other takes the full rate. *)
  let g = Gps.create ~capacity:1. (Flow.equal_weights 2) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:1.);
  ignore (Gps.arrive g ~time:0. ~flow:1 ~size:5.);
  Gps.advance_to g 4.;
  check_float "flow0 done" 1. (Gps.service g ~flow:0);
  (* flow1: 1 unit while sharing (t in [0,2]) then 2 alone = 3. *)
  check_float "flow1 reclaims" 3. (Gps.service g ~flow:1)

let test_gps_departure_times () =
  let g = Gps.create ~capacity:1. (Flow.equal_weights 2) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:1.);
  ignore (Gps.arrive g ~time:0. ~flow:1 ~size:3.);
  Gps.advance_to g 10.;
  match Gps.departures g with
  | [ d0; d1 ] ->
      check_int "flow0 first" 0 d0.Gps.flow;
      check_float "flow0 departs at 2" 2. d0.Gps.time;
      check_float "flow1 departs at 4" 4. d1.Gps.time
  | ds -> Alcotest.failf "expected 2 departures, got %d" (List.length ds)

let test_gps_virtual_time_slope () =
  let g = Gps.create ~capacity:1. (Flow.equal_weights 2) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:10.);
  (* only flow0 backlogged: dv/dt = 1/r = 1 *)
  check_float "v after 1s" 1. (Gps.virtual_time g ~time:1.);
  ignore (Gps.arrive g ~time:1. ~flow:1 ~size:10.);
  (* both backlogged: dv/dt = 1/2 *)
  check_float "v after 3s" 2. (Gps.virtual_time g ~time:3.)

let test_gps_idle_virtual_time_constant () =
  let g = Gps.create ~capacity:1. (Flow.equal_weights 1) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:1.);
  let v1 = Gps.virtual_time g ~time:5. in
  let v2 = Gps.virtual_time g ~time:50. in
  check_float "constant when idle" v1 v2;
  check_bool "not backlogged" false (Gps.is_backlogged g ~flow:0)

let test_gps_tags_chain () =
  let g = Gps.create ~capacity:1. (Flow.equal_weights 1) in
  let s1, f1 = Gps.arrive g ~time:0. ~flow:0 ~size:1. in
  let s2, f2 = Gps.arrive g ~time:0. ~flow:0 ~size:1. in
  check_float "first start at v" 0. s1;
  check_float "first finish" 1. f1;
  check_float "second chains" f1 s2;
  check_float "second finish" 2. f2

let test_gps_backlog_tracking () =
  let g = Gps.create ~capacity:1. (Flow.equal_weights 2) in
  ignore (Gps.arrive g ~time:0. ~flow:0 ~size:2.);
  check_float "initial backlog" 2. (Gps.backlog g ~flow:0);
  Gps.advance_to g 1.;
  check_float "after 1s alone" 1. (Gps.backlog g ~flow:0);
  check_float "weights of backlogged" 1. (Gps.backlogged_weight g)

(* --- Server driver + schedulers --- *)

let run_sched instance jobs = Server.run ~capacity:1. instance jobs

let test_wfq_simple_order () =
  (* Flow 1 (weight 3) should get 3 of the first 4 services under
     continuous backlog. *)
  let flows = Flow.of_weights [| 1.; 3. |] in
  let jobs =
    List.concat_map
      (fun seq ->
        [
          job ~flow:0 ~seq ~arrival:0. ();
          job ~flow:1 ~seq ~arrival:0. ();
        ])
      [ 0; 1; 2; 3 ]
  in
  let completions = run_sched (Wfs_wireline.Wfq.instance ~capacity:1. flows) jobs in
  let first4 = List.filteri (fun i _ -> i < 4) completions in
  let flow1 =
    List.length (List.filter (fun c -> c.Server.job.Job.flow = 1) first4)
  in
  check_int "weighted share" 3 flow1

let test_wfq_work_conserving () =
  let flows = Flow.equal_weights 2 in
  let jobs = [ job ~flow:0 ~seq:0 ~arrival:0. (); job ~flow:1 ~seq:0 ~arrival:5. () ] in
  let completions = run_sched (Wfs_wireline.Wfq.instance ~capacity:1. flows) jobs in
  match completions with
  | [ c0; c1 ] ->
      check_float "no gap for first" 1. c0.Server.finish;
      check_float "second starts on arrival" 5. c1.Server.start
  | _ -> Alcotest.fail "expected 2 completions"

(* Random workload generator shared by the conformance properties.
   Sequence numbers are per flow, matching the GPS reference's internal
   numbering. *)
let random_jobs ~seed ~n_flows ~n_jobs =
  let rng = Rng.create seed in
  let t = ref 0. in
  let seqs = Array.make n_flows 0 in
  List.init n_jobs (fun _ ->
      t := !t +. Rng.exponential rng ~rate:0.8;
      let flow = Rng.int rng n_flows in
      let size = 0.5 +. Rng.float rng in
      let seq = seqs.(flow) in
      seqs.(flow) <- seq + 1;
      Job.make ~flow ~seq ~arrival:!t ~size)

(* Lemma 1 (Parekh–Gallager): every packet finishes under WFQ no later
   than its GPS fluid finish time plus Lmax/C. *)
let test_wfq_lemma1_bound () =
  let flows = Flow.of_weights [| 1.; 2.; 0.5 |] in
  let jobs = random_jobs ~seed:42 ~n_flows:3 ~n_jobs:400 in
  let wfq = Wfs_wireline.Wfq.create ~capacity:1. flows in
  let instance =
    Wfs_wireline.Sched_intf.make ~name:"WFQ"
      ~enqueue:(Wfs_wireline.Wfq.enqueue wfq)
      ~dequeue:(fun ~time -> Wfs_wireline.Wfq.dequeue wfq ~time)
      ~queued:(fun () -> Wfs_wireline.Wfq.queued wfq)
  in
  let completions = Server.run ~capacity:1. instance jobs in
  let gps = Wfs_wireline.Wfq.gps wfq in
  Gps.advance_to gps 1e9;
  let fluid = Hashtbl.create 512 in
  List.iter
    (fun d -> Hashtbl.replace fluid (d.Gps.flow, d.Gps.seq) d.Gps.time)
    (Gps.departures gps);
  let lmax =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.size) 0. jobs
  in
  List.iter
    (fun c ->
      let key = (c.Server.job.Job.flow, c.Server.job.Job.seq) in
      match Hashtbl.find_opt fluid key with
      | Some fluid_finish ->
          check_bool "WFQ finish <= GPS finish + Lmax/C" true
            (c.Server.finish <= fluid_finish +. lmax +. 1e-6)
      | None -> Alcotest.fail "missing fluid departure")
    completions

(* WF2Q is also within one packet of GPS, and additionally never ahead of
   the fluid service by more than one packet (worst-case fairness). *)
let test_wf2q_lemma1_bound () =
  let flows = Flow.of_weights [| 1.; 2.; 0.5 |] in
  let jobs = random_jobs ~seed:43 ~n_flows:3 ~n_jobs:400 in
  let wf2q = Wfs_wireline.Wf2q.create ~capacity:1. flows in
  let instance =
    Wfs_wireline.Sched_intf.make ~name:"WF2Q"
      ~enqueue:(Wfs_wireline.Wf2q.enqueue wf2q)
      ~dequeue:(fun ~time -> Wfs_wireline.Wf2q.dequeue wf2q ~time)
      ~queued:(fun () -> Wfs_wireline.Wf2q.queued wf2q)
  in
  let completions = Server.run ~capacity:1. instance jobs in
  let gps = Wfs_wireline.Wf2q.gps wf2q in
  Gps.advance_to gps 1e9;
  let fluid = Hashtbl.create 512 in
  List.iter
    (fun d -> Hashtbl.replace fluid (d.Gps.flow, d.Gps.seq) d.Gps.time)
    (Gps.departures gps);
  let lmax =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.size) 0. jobs
  in
  List.iter
    (fun c ->
      let key = (c.Server.job.Job.flow, c.Server.job.Job.seq) in
      let fluid_finish = Hashtbl.find fluid key in
      check_bool "WF2Q finish <= GPS + Lmax" true
        (c.Server.finish <= fluid_finish +. lmax +. 1e-6))
    completions;
  (* Worst-case fairness: per flow, WF2Q is never ahead of the fluid
     system by more than one packet — when its k-th packet finishes, GPS
     must already have finished the flow's (k-1)-th. *)
  let by_flow f xs = List.filter (fun (fl, _) -> fl = f) xs |> List.map snd in
  let wf2q_times =
    List.map (fun c -> (c.Server.job.Job.flow, c.Server.finish)) completions
  in
  let gps_times =
    List.map (fun (d : Gps.departure) -> (d.flow, d.time)) (Gps.departures gps)
  in
  List.iter
    (fun f ->
      let w = List.sort compare (by_flow f wf2q_times) in
      let g = List.sort compare (by_flow f gps_times) in
      List.iteri
        (fun k ck ->
          if k >= 1 then
            check_bool "not ahead of fluid by > 1 packet" true
              (ck >= List.nth g (k - 1) -. 1e-6))
        w)
    [ 0; 1; 2 ]

(* The packetized GPS emulations the comparative tests run side by side. *)
let all_instances flows =
  [
    Wfs_wireline.Wfq.instance ~capacity:1. flows;
    Wfs_wireline.Wf2q.instance ~capacity:1. flows;
    Wfs_wireline.Wf2q_plus.instance ~capacity:1. flows;
  ]

let test_all_schedulers_complete_everything () =
  let flows = Flow.of_weights [| 1.; 2. |] in
  let jobs = random_jobs ~seed:44 ~n_flows:2 ~n_jobs:300 in
  List.iter
    (fun instance ->
      let completions = Server.run ~capacity:1. instance jobs in
      check_int
        (Printf.sprintf "%s completes all" instance.Wfs_wireline.Sched_intf.name)
        300 (List.length completions))
    (all_instances flows)

let test_all_schedulers_work_conserving () =
  (* Total busy time equals total work whenever there is backlog: the last
     completion of a continuously backlogged burst ends at total size. *)
  let flows = Flow.equal_weights 3 in
  let jobs =
    List.init 30 (fun i -> job ~flow:(i mod 3) ~seq:(i / 3) ~arrival:0. ())
  in
  List.iter
    (fun instance ->
      let completions = Server.run ~capacity:1. instance jobs in
      let last =
        List.fold_left (fun acc c -> Float.max acc c.Server.finish) 0. completions
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%s busy until 30" instance.Wfs_wireline.Sched_intf.name)
        30. last)
    (all_instances flows)

let test_throughput_fair_shares () =
  (* Saturated flows with weights 1:2:1 split a long busy period 25/50/25. *)
  let flows = Flow.of_weights [| 1.; 2.; 1. |] in
  let jobs =
    List.concat
      (List.init 300 (fun seq ->
           List.init 3 (fun flow -> job ~flow ~seq ~arrival:0. ())))
  in
  List.iter
    (fun instance ->
      let completions = Server.run ~capacity:1. instance jobs in
      let served = Server.throughput_by_flow completions ~until:200. in
      let get f = List.assoc f served in
      let name = instance.Wfs_wireline.Sched_intf.name in
      check_bool (name ^ " flow1 double share") true
        (abs_float ((get 1 /. get 0) -. 2.) < 0.15);
      check_bool (name ^ " flows 0,2 equal") true
        (abs_float (get 0 -. get 2) < 6.))
    (all_instances flows)

let test_wfq_isolates_well_behaved_flow () =
  (* The separation property the paper leans on: a flow that floods the
     queue cannot degrade a conforming CBR flow's delay under WFQ beyond
     its fair-share bound, unlike FIFO would. *)
  let flows = Flow.equal_weights 2 in
  let jobs =
    (* flow 0: conforming, one packet every 2s; flow 1: dumps 200 packets
       at t=0. *)
    List.init 100 (fun seq -> job ~flow:0 ~seq ~arrival:(2. *. float_of_int seq) ())
    @ List.init 200 (fun seq -> job ~flow:1 ~seq ~arrival:0. ())
  in
  let completions = run_sched (Wfs_wireline.Wfq.instance ~capacity:1. flows) jobs in
  List.iter
    (fun c ->
      if c.Server.job.Job.flow = 0 then
        check_bool "conforming flow delay bounded" true
          (c.Server.finish -. c.Server.job.Job.arrival <= 3. +. 1e-6))
    completions

let test_delays_by_flow_helper () =
  let flows = Flow.equal_weights 1 in
  let jobs = [ job ~flow:0 ~seq:0 ~arrival:0. (); job ~flow:0 ~seq:1 ~arrival:0. () ] in
  let completions = run_sched (Wfs_wireline.Wfq.instance ~capacity:1. flows) jobs in
  match Server.delays_by_flow completions with
  | [ (0, [ d1; d2 ]) ] ->
      check_float "first delay" 1. d1;
      check_float "second delay" 2. d2
  | _ -> Alcotest.fail "unexpected shape"

let prop_gps_invariants =
  (* Randomised GPS sanity: service is non-negative and non-decreasing,
     backlog never goes negative, total service never exceeds capacity ×
     elapsed time, and every packet eventually departs. *)
  QCheck.Test.make ~name:"GPS invariants under random workloads" ~count:50
    QCheck.(pair (0 -- 1000000) (2 -- 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let weights = Array.init n (fun _ -> 0.25 +. Rng.float rng) in
      let gps = Gps.create ~capacity:1. (Flow.of_weights weights) in
      let t = ref 0. in
      let sent = ref 0 in
      let prev_service = Array.make n 0. in
      let ok = ref true in
      for _ = 1 to 100 do
        t := !t +. Rng.exponential rng ~rate:1.;
        let flow = Rng.int rng n in
        let size = 0.25 +. Rng.float rng in
        ignore (Gps.arrive gps ~time:!t ~flow ~size);
        incr sent;
        let total = ref 0. in
        for i = 0 to n - 1 do
          let s = Gps.service gps ~flow:i in
          if s < prev_service.(i) -. 1e-9 then ok := false;
          if Gps.backlog gps ~flow:i < -1e-9 then ok := false;
          prev_service.(i) <- s;
          total := !total +. s
        done;
        if !total > !t +. 1e-6 then ok := false
      done;
      Gps.advance_to gps (!t +. 1e6);
      !ok && List.length (Gps.departures gps) = !sent)

let suite =
  [
    ("gps equal split", `Quick, test_gps_equal_split);
    ("gps weighted split", `Quick, test_gps_weighted_split);
    ("gps reclaims idle capacity", `Quick, test_gps_reclaims_idle_capacity);
    ("gps departure times", `Quick, test_gps_departure_times);
    ("gps virtual time slope", `Quick, test_gps_virtual_time_slope);
    ("gps idle virtual time", `Quick, test_gps_idle_virtual_time_constant);
    ("gps tags chain", `Quick, test_gps_tags_chain);
    ("gps backlog tracking", `Quick, test_gps_backlog_tracking);
    QCheck_alcotest.to_alcotest prop_gps_invariants;
    ("wfq weighted order", `Quick, test_wfq_simple_order);
    ("wfq work conserving", `Quick, test_wfq_work_conserving);
    ("wfq Lemma 1 bound", `Quick, test_wfq_lemma1_bound);
    ("wf2q Lemma 1 bound", `Quick, test_wf2q_lemma1_bound);
    ("all schedulers complete", `Quick, test_all_schedulers_complete_everything);
    ("all schedulers work-conserving", `Quick, test_all_schedulers_work_conserving);
    ("fair throughput shares", `Quick, test_throughput_fair_shares);
    ("wfq isolates conforming flow", `Quick, test_wfq_isolates_well_behaved_flow);
    ("delays_by_flow helper", `Quick, test_delays_by_flow_helper);
  ]
