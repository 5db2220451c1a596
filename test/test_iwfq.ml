(* Tests for the core wireless fair queueing machinery: the slotted fluid
   reference, slot queues (tag side of Section 4.2), spreading, credits, and
   the IWFQ algorithm itself. *)

module Core = Wfs_core
module Fluid = Core.Fluid_ref
module Sq = Core.Slot_queue
module Packet = Wfs_traffic.Packet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Fluid reference --- *)

let test_fluid_equal_split () =
  let f = Fluid.create ~weights:[| 1.; 1. |] () in
  Fluid.add_arrivals f ~flow:0 ~count:4;
  Fluid.add_arrivals f ~flow:1 ~count:4;
  Fluid.step f;
  check_float "half each" 0.5 (Fluid.service f ~flow:0);
  check_float "half each" 0.5 (Fluid.service f ~flow:1);
  check_float "queue shrinks" 3.5 (Fluid.queue f ~flow:0)

let test_fluid_weighted_split () =
  let f = Fluid.create ~weights:[| 3.; 1. |] () in
  Fluid.add_arrivals f ~flow:0 ~count:10;
  Fluid.add_arrivals f ~flow:1 ~count:10;
  for _ = 1 to 4 do
    Fluid.step f
  done;
  check_float "3:1" 3. (Fluid.service f ~flow:0);
  check_float "3:1" 1. (Fluid.service f ~flow:1)

let test_fluid_drain_midslot () =
  (* Weights 2:1.  Slot 0 leaves flow 0 with a 1/3-packet backlog; during
     slot 1 it drains mid-slot and flow 1 absorbs the freed rate. *)
  let f = Fluid.create ~weights:[| 2.; 1. |] () in
  Fluid.add_arrivals f ~flow:0 ~count:1;
  Fluid.add_arrivals f ~flow:1 ~count:3;
  Fluid.step f;
  Alcotest.(check (float 1e-9)) "slot 0: 2/3 to flow0" (2. /. 3.)
    (Fluid.service f ~flow:0);
  Fluid.step f;
  check_float "flow0 drained" 0. (Fluid.queue f ~flow:0);
  check_float "flow0 total service" 1. (Fluid.service f ~flow:0);
  (* flow1: 1/3 (slot 0) + 1/6 (sharing) + 1/2 (alone) = 1. *)
  Alcotest.(check (float 1e-9)) "flow1 absorbed the freed rate" 1.
    (Fluid.service f ~flow:1)

let test_fluid_virtual_time () =
  let f = Fluid.create ~weights:[| 1.; 1. |] () in
  check_float "starts 0" 0. (Fluid.virtual_time f);
  Fluid.add_arrivals f ~flow:0 ~count:2;
  Fluid.step f;
  (* only flow0 backlogged: dv = C/r0 = 1 *)
  check_float "slope 1 alone" 1. (Fluid.virtual_time f);
  Fluid.add_arrivals f ~flow:1 ~count:2;
  Fluid.step f;
  check_float "slope 1/2 together" 1.5 (Fluid.virtual_time f)

let test_fluid_idle_constant_v () =
  let f = Fluid.create ~weights:[| 1. |] () in
  Fluid.add_arrivals f ~flow:0 ~count:1;
  Fluid.step f;
  let v = Fluid.virtual_time f in
  Fluid.step f;
  Fluid.step f;
  check_float "v frozen when idle" v (Fluid.virtual_time f);
  check_int "slots counted" 3 (Fluid.slot f)

let test_fluid_conservation () =
  (* Total service equals capacity whenever there is enough backlog. *)
  let f = Fluid.create ~weights:[| 2.; 1.; 0.5 |] () in
  Fluid.add_arrivals f ~flow:0 ~count:10;
  Fluid.add_arrivals f ~flow:1 ~count:10;
  Fluid.add_arrivals f ~flow:2 ~count:10;
  for _ = 1 to 10 do
    Fluid.step f
  done;
  let total =
    Fluid.service f ~flow:0 +. Fluid.service f ~flow:1 +. Fluid.service f ~flow:2
  in
  Alcotest.(check (float 1e-6)) "work conserving" 10. total

let prop_fluid_fairness =
  (* Equation (1): over any backlogged interval, normalised service is
     equal across continuously backlogged flows. *)
  QCheck.Test.make ~name:"fluid normalised service equal when backlogged"
    ~count:100
    QCheck.(pair (1 -- 5) (1 -- 5))
    (fun (w0, w1) ->
      let weights = [| float_of_int w0; float_of_int w1 |] in
      let f = Fluid.create ~weights () in
      Fluid.add_arrivals f ~flow:0 ~count:100;
      Fluid.add_arrivals f ~flow:1 ~count:100;
      for _ = 1 to 20 do
        Fluid.step f
      done;
      let s0 = Fluid.service f ~flow:0 /. weights.(0) in
      let s1 = Fluid.service f ~flow:1 /. weights.(1) in
      abs_float (s0 -. s1) < 1e-6)

let prop_fluid_matches_continuous_gps =
  (* Cross-validation of the two fluid implementations: for unit-size
     packets arriving at integer instants, the slotted water-filling
     reference must agree with the event-driven continuous GPS at every
     slot boundary. *)
  QCheck.Test.make ~name:"slotted fluid = continuous GPS at slot boundaries"
    ~count:50
    QCheck.(pair (0 -- 100000) (2 -- 4))
    (fun (seed, n) ->
      let rng = Wfs_util.Rng.create seed in
      let weights =
        Array.init n (fun _ -> 0.5 +. Wfs_util.Rng.float rng)
      in
      let fluid = Fluid.create ~weights () in
      let gps =
        Wfs_wireline.Gps.create ~capacity:1.
          (Wfs_wireline.Flow.of_weights weights)
      in
      let ok = ref true in
      for slot = 0 to 99 do
        for flow = 0 to n - 1 do
          if Wfs_util.Rng.bernoulli rng (0.8 /. float_of_int n) then begin
            Fluid.add_arrivals fluid ~flow ~count:1;
            ignore
              (Wfs_wireline.Gps.arrive gps ~time:(float_of_int slot) ~flow
                 ~size:1.)
          end
        done;
        Fluid.step fluid;
        Wfs_wireline.Gps.advance_to gps (float_of_int (slot + 1));
        for flow = 0 to n - 1 do
          let a = Fluid.service fluid ~flow in
          let b = Wfs_wireline.Gps.service gps ~flow in
          if abs_float (a -. b) > 1e-6 then ok := false
        done
      done;
      !ok)

(* Bit-exact against the dense oracle: random arrivals, steps and idle
   skips over non-dyadic weights, where float sums round and their order
   shows.  After every operation each flow's backlog and service, the
   virtual time, the slot and [is_busy] must carry the oracle's bits. *)
type fluid_op = Arrive of int * int | Step | Skip of int

let gen_fluid_case =
  let open QCheck.Gen in
  let weight = oneofl [ 0.3; 0.7; 1.1; 1.5; 2.2; 3. ] in
  1 -- 40 >>= fun n ->
  let op =
    frequency
      [
        (3, map2 (fun flow count -> Arrive (flow, count)) (0 -- (n - 1)) (0 -- 16));
        (3, return Step);
        (1, map (fun k -> Skip k) (0 -- 4));
      ]
  in
  pair (array_repeat n weight) (list_size (0 -- 200) op)

let print_fluid_case (weights, ops) =
  let op = function
    | Arrive (flow, count) -> Printf.sprintf "arrive %d x%d" flow count
    | Step -> "step"
    | Skip k -> Printf.sprintf "skip %d" k
  in
  Printf.sprintf "weights [%s]; %s"
    (String.concat "; " (Array.to_list (Array.map string_of_float weights)))
    (String.concat ", " (List.map op ops))

let prop_fluid_matches_dense =
  QCheck.Test.make ~name:"fluid reference bit-identical to the dense oracle"
    ~count:300
    (QCheck.make ~print:print_fluid_case gen_fluid_case)
    (fun (weights, ops) ->
      let f = Fluid.create ~weights () in
      let d = Dense_fluid.create ~weights () in
      let bits = Int64.bits_of_float in
      let same () =
        bits (Fluid.virtual_time f) = bits d.Dense_fluid.v
        && Fluid.slot f = d.Dense_fluid.slot
        && Fluid.is_busy f = Dense_fluid.is_busy d
        && Array.for_all Fun.id
             (Array.init (Array.length weights) (fun flow ->
                  bits (Fluid.queue f ~flow) = bits d.Dense_fluid.queue.(flow)
                  && bits (Fluid.service f ~flow)
                     = bits d.Dense_fluid.service.(flow)))
      in
      List.for_all
        (fun op ->
          (match op with
          | Arrive (flow, count) ->
              Fluid.add_arrivals f ~flow ~count;
              Dense_fluid.add_arrivals d ~flow ~count
          | Step ->
              Fluid.step f;
              Dense_fluid.step d
          | Skip slots ->
              Fluid.skip_idle f ~slots;
              Dense_fluid.skip_idle d ~slots);
          same ())
        ops)

(* --- Slot queue --- *)

let test_slot_queue_tags () =
  let q = Sq.create ~weight:0.5 ~max_lead:4. in
  Sq.add q ~v:0.;
  Sq.add q ~v:0.;
  let (s1_start, s1_finish), (s2_start, _) =
    match Sq.to_list q with [ s1; s2 ] -> (s1, s2) | _ -> Alcotest.fail "two slots"
  in
  check_float "first start" 0. s1_start;
  check_float "first finish (1/r)" 2. s1_finish;
  check_float "chained" 2. s2_start;
  check_int "length" 2 (Sq.length q)

let test_slot_queue_tags_after_idle () =
  let q = Sq.create ~weight:1. ~max_lead:4. in
  Sq.add q ~v:0.;
  Sq.pop_front q;
  Sq.add q ~v:5.;
  check_float "restarts at v" 5. (Sq.head_start q)

let test_slot_queue_pop_back () =
  let q = Sq.create ~weight:1. ~max_lead:4. in
  Sq.add q ~v:0.;
  Sq.add q ~v:0.;
  let s1 = match Sq.to_list q with [ s1; _ ] -> s1 | _ -> Alcotest.fail "two slots" in
  Sq.pop_back q;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "newest popped" [ s1 ] (Sq.to_list q);
  check_float "head intact" (snd s1) (Sq.head_finish q)

let test_slot_queue_lagging_count () =
  let q = Sq.create ~weight:1. ~max_lead:4. in
  for _ = 1 to 5 do
    Sq.add q ~v:0.
  done;
  (* finishes 1..5 *)
  check_int "lagging below v=3.5" 3 (Sq.lagging_count q ~v:3.5);
  check_int "none below v=0.5" 0 (Sq.lagging_count q ~v:0.5)

let test_slot_queue_trim_lagging () =
  let q = Sq.create ~weight:1. ~max_lead:4. in
  for _ = 1 to 6 do
    Sq.add q ~v:0.
  done;
  (* finishes 1..6; v=5.5 makes 5 lagging; cap 2 keeps finishes 1,2 and
     deletes 3,4,5; finish 6 (non-lagging) survives. *)
  let deleted = Sq.trim_lagging q ~v:5.5 ~max_lagging:2 in
  check_int "deleted 3" 3 deleted;
  check_int "remaining" 3 (Sq.length q);
  let finishes = List.map snd (Sq.to_list q) in
  Alcotest.(check (list (float 1e-9))) "kept lowest + tail" [ 1.; 2.; 6. ] finishes

let test_slot_queue_trim_noop () =
  let q = Sq.create ~weight:1. ~max_lead:4. in
  Sq.add q ~v:0.;
  check_int "no deletion needed" 0 (Sq.trim_lagging q ~v:10. ~max_lagging:5)

let test_slot_queue_clamp_lead () =
  let q = Sq.create ~weight:1. ~max_lead:4. in
  Sq.add q ~v:10.;
  (* head start 10; with v=0 and max_lead 4, limit = 4 -> clamp *)
  check_bool "clamped" true (Sq.clamp_lead q ~v:0.);
  check_float "start clamped" 4. (Sq.head_start q);
  check_float "finish follows" 5. (Sq.head_finish q);
  check_bool "no further clamp" false (Sq.clamp_lead q ~v:0.)

let test_slot_queue_clamp_updates_chain () =
  let q = Sq.create ~weight:1. ~max_lead:2. in
  Sq.add q ~v:10.;
  ignore (Sq.clamp_lead q ~v:0.);
  (* next arrival chains from the clamped finish (3), not the old 11 *)
  Sq.add q ~v:0.;
  check_float "chains from clamped finish" 3. (fst (List.nth (Sq.to_list q) 1))

(* --- Spreading --- *)

let test_spreading_counts () =
  let frame = Core.Spreading.frame ~weights:[| 2; 1; 3 |] in
  check_int "length" 6 (Array.length frame);
  check_bool "valid spread" true
    (Core.Spreading.is_spread_of ~weights:[| 2; 1; 3 |] frame)

let test_spreading_interleaves () =
  (* Equal weights must alternate, not cluster. *)
  let frame = Core.Spreading.frame ~weights:[| 2; 2 |] in
  Alcotest.(check (array int)) "alternating" [| 0; 1; 0; 1 |] frame

let test_spreading_wf2q_order () =
  (* weights 3,1: WF2Q spreads the singleton late: 0,0,1?,... finish tags:
     flow0: 1/3,2/3,1; flow1: 1. At pos0 eligible both (start 0): f0
     (1/3). pos1: v=1/4, f0#1 start 1/3 not eligible, f1 start 0 eligible
     finish 1 -> f1? No: eligibility start <= v: f0#1 start=1/3 > 0.25 so
     only f1 eligible. *)
  let frame = Core.Spreading.frame ~weights:[| 3; 1 |] in
  Alcotest.(check (array int)) "wf2q eligibility order" [| 0; 1; 0; 0 |] frame

let test_spreading_zero_and_negative () =
  let frame = Core.Spreading.frame ~weights:[| 2; 0; -3 |] in
  Alcotest.(check (array int)) "only positive weights" [| 0; 0 |] frame;
  check_int "all zero" 0 (Array.length (Core.Spreading.frame ~weights:[| 0; 0 |]))

let prop_spreading_is_permutation =
  QCheck.Test.make ~name:"spreading emits exactly w_i slots per flow" ~count:200
    QCheck.(list_of_size Gen.(1 -- 6) (0 -- 5))
    (fun ws ->
      let weights = Array.of_list ws in
      Core.Spreading.is_spread_of ~weights (Core.Spreading.frame ~weights))

let prop_spreading_prefix_proportional =
  (* WF2Q spreading: in any prefix of length k, flow i holds at most
     ceil(k * w_i / W) + 1 slots. *)
  QCheck.Test.make ~name:"spreading prefixes near-proportional" ~count:200
    QCheck.(list_of_size Gen.(2 -- 5) (1 -- 5))
    (fun ws ->
      let weights = Array.of_list ws in
      let frame = Core.Spreading.frame ~weights in
      let total = Array.length frame in
      let n = Array.length weights in
      let counts = Array.make n 0 in
      let ok = ref true in
      Array.iteri
        (fun k flow ->
          counts.(flow) <- counts.(flow) + 1;
          let wsum = Array.fold_left ( + ) 0 weights in
          let expected =
            float_of_int ((k + 1) * weights.(flow)) /. float_of_int wsum
          in
          if float_of_int counts.(flow) > ceil expected +. 1. then ok := false)
        frame;
      ignore total;
      !ok)

(* --- Credit --- *)

let test_credit_earn_and_cap () =
  let c = Core.Credit.create ~credit_limit:4 ~debit_limit:4 ~weight:1 () in
  check_int "weight 1 frame" 1 (Core.Credit.begin_frame c);
  Core.Credit.end_frame c ~attempts:0;
  check_int "earned 1" 1 (Core.Credit.balance c);
  check_int "boosted frame" 2 (Core.Credit.begin_frame c);
  Core.Credit.end_frame c ~attempts:0;
  check_int "earned 2 (capped path)" 2 (Core.Credit.balance c);
  (* Keep missing: saturates at the cap. *)
  for _ = 1 to 10 do
    ignore (Core.Credit.begin_frame c);
    Core.Credit.end_frame c ~attempts:0
  done;
  check_int "capped at 4" 4 (Core.Credit.balance c)

let test_credit_debit () =
  let c = Core.Credit.create ~credit_limit:4 ~debit_limit:2 ~weight:1 () in
  ignore (Core.Credit.begin_frame c);
  (* transmitted 5 beyond grant of 1 -> debt capped at 2 *)
  Core.Credit.end_frame c ~attempts:6;
  check_int "debt capped" (-2) (Core.Credit.balance c);
  check_int "weight reduced" (-1) (Core.Credit.begin_frame c);
  (* with nothing transmitted, the debt shrinks by the weight *)
  Core.Credit.end_frame c ~attempts:0;
  check_int "debt decays" (-1) (Core.Credit.balance c)

let test_credit_redeem_then_spend () =
  let c = Core.Credit.create ~credit_limit:4 ~debit_limit:4 ~weight:1 () in
  ignore (Core.Credit.begin_frame c);
  Core.Credit.end_frame c ~attempts:0;
  (* balance 1; redeem and use both slots: back to zero. *)
  check_int "effective 2" 2 (Core.Credit.begin_frame c);
  Core.Credit.end_frame c ~attempts:2;
  check_int "spent" 0 (Core.Credit.balance c)

let test_credit_per_frame_cap () =
  let c =
    Core.Credit.create ~credit_limit:4 ~debit_limit:4 ~credit_per_frame:2
      ~weight:1 ()
  in
  for _ = 1 to 4 do
    ignore (Core.Credit.begin_frame c);
    Core.Credit.end_frame c ~attempts:0
  done;
  check_int "banked 4" 4 (Core.Credit.balance c);
  check_int "redeems only 2" 3 (Core.Credit.begin_frame c);
  Core.Credit.end_frame c ~attempts:3;
  check_int "carry preserved" 2 (Core.Credit.balance c)

(* --- IWFQ --- *)

let mk_flows ?(drop = Core.Params.No_drop) weights =
  Array.mapi (fun id w -> Core.Params.flow ~id ~weight:w ~drop ()) weights

let pkt ~flow ~seq ~arrival = Packet.make ~flow ~seq ~arrival ()

let test_iwfq_error_free_is_wfq_order () =
  (* With all channels good, IWFQ serves in finish-tag (WFQ) order. *)
  let iwfq = Core.Iwfq.create (mk_flows [| 1.; 3. |]) in
  let sched = Core.Iwfq.instance iwfq in
  for seq = 0 to 3 do
    sched.enqueue ~slot:0 (pkt ~flow:0 ~seq ~arrival:0);
    sched.enqueue ~slot:0 (pkt ~flow:1 ~seq ~arrival:0)
  done;
  let order = ref [] in
  for slot = 0 to 3 do
    match sched.select ~slot ~predicted_good:(fun _ -> true) with
    | Some f ->
        order := f :: !order;
        sched.complete ~flow:f;
        sched.on_slot_end ~slot
    | None -> Alcotest.fail "unexpected idle"
  done;
  (* finish tags: f0: 1,2,..; f1: 1/3,2/3,1,4/3 -> f1,f1,f1?,... v grows. *)
  check_int "weighted dominance" 3
    (List.length (List.filter (fun f -> f = 1) !order))

let test_iwfq_blocked_flow_keeps_tag_precedence () =
  (* A flow blocked by errors regains the channel as soon as it is good,
     because its service tag did not advance. *)
  let iwfq = Core.Iwfq.create (mk_flows [| 1.; 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  sched.enqueue ~slot:0 (pkt ~flow:0 ~seq:0 ~arrival:0);
  for seq = 0 to 5 do
    sched.enqueue ~slot:0 (pkt ~flow:1 ~seq ~arrival:0)
  done;
  (* flow0 in error for 3 slots: flow1 gets served. *)
  for slot = 0 to 2 do
    let sel = sched.select ~slot ~predicted_good:(fun f -> f = 1) in
    check_int "flow1 substitutes" 1 (Option.get sel);
    sched.complete ~flow:1;
    sched.on_slot_end ~slot
  done;
  (* flow0 channel recovers: lowest tag wins immediately. *)
  let sel = sched.select ~slot:3 ~predicted_good:(fun _ -> true) in
  check_int "lagging flow preempts" 0 (Option.get sel)

let test_iwfq_lead_bound_limits_punishment () =
  (* A flow that got extra service is ahead; the lead clamp bounds how long
     it is locked out.  With l=1 and weight 1, its head tag is pulled to
     v+1. *)
  let params =
    { (Core.Params.iwfq_defaults ~n_flows:2) with lead = [| 1.; 1. |] }
  in
  let iwfq = Core.Iwfq.create ~params (mk_flows [| 1.; 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  (* Both flows backlogged, but flow1's channel is in error: flow0
     transmits 6 packets and runs ahead of its fluid share. *)
  for seq = 0 to 9 do
    sched.enqueue ~slot:0 (pkt ~flow:0 ~seq ~arrival:0);
    sched.enqueue ~slot:0 (pkt ~flow:1 ~seq ~arrival:0)
  done;
  for slot = 0 to 5 do
    ignore (sched.select ~slot ~predicted_good:(fun f -> f = 0));
    sched.complete ~flow:0;
    sched.on_slot_end ~slot
  done;
  check_bool "flow0 is leading" true (Core.Iwfq.lag iwfq ~flow:0 < 0.);
  (* service tag of flow0 is clamped to v + l/r + 1/r, not its raw tag 7 *)
  let v = Core.Iwfq.virtual_time iwfq in
  ignore (sched.select ~slot:6 ~predicted_good:(fun _ -> true));
  let tag = Core.Iwfq.service_tag iwfq ~flow:0 in
  check_bool "clamped service tag" true (tag <= v +. 1. +. 1. +. 1e-9)

let test_iwfq_lag_bound_drops_slots () =
  (* Per-flow lag cap B_i: a long error burst cannot bank unbounded
     precedence. *)
  let params =
    { Core.Params.lag_total = 2.; lead = [| 4.; 4. |]; wf2q_selection = false }
  in
  let iwfq = Core.Iwfq.create ~params (mk_flows [| 1.; 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  for seq = 0 to 9 do
    sched.enqueue ~slot:0 (pkt ~flow:0 ~seq ~arrival:0);
    sched.enqueue ~slot:0 (pkt ~flow:1 ~seq ~arrival:0)
  done;
  (* flow0 errored for 10 slots; flow1 drains. *)
  for slot = 0 to 9 do
    ignore (sched.select ~slot ~predicted_good:(fun f -> f = 1));
    if sched.queue_length 1 > 0 then sched.complete ~flow:1;
    sched.on_slot_end ~slot
  done;
  (* B_0 = B*r/(sum r) = 1 packet: slot queue trimmed to its cap plus
     non-lagging slots; queue of packets mirrors it. *)
  check_bool "slots were trimmed" true
    (Core.Iwfq.slot_queue_length iwfq ~flow:0 < 10);
  check_int "packet queue mirrors slot queue" (Core.Iwfq.slot_queue_length iwfq ~flow:0)
    (sched.queue_length 0)

let test_iwfq_drop_head_keeps_earliest_slot () =
  let iwfq = Core.Iwfq.create (mk_flows [| 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  sched.enqueue ~slot:0 (pkt ~flow:0 ~seq:0 ~arrival:0);
  sched.enqueue ~slot:0 (pkt ~flow:0 ~seq:1 ~arrival:0);
  let tag_before = Core.Iwfq.service_tag iwfq ~flow:0 in
  sched.drop_head ~flow:0;
  check_float "service tag unchanged by drop" tag_before
    (Core.Iwfq.service_tag iwfq ~flow:0);
  check_int "one packet left" 1 (sched.queue_length 0);
  check_int "one slot left" 1 (Core.Iwfq.slot_queue_length iwfq ~flow:0)

let test_iwfq_drop_expired () =
  let iwfq = Core.Iwfq.create (mk_flows [| 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  sched.enqueue ~slot:0 (pkt ~flow:0 ~seq:0 ~arrival:0);
  sched.enqueue ~slot:0 (pkt ~flow:0 ~seq:1 ~arrival:0);
  (* The drivers' delay-bound drop loop. *)
  let dropped = ref 0 in
  while Core.Wireless_sched.head_expired sched ~flow:0 ~now:10 ~bound:5 do
    sched.drop_head ~flow:0;
    incr dropped
  done;
  check_int "both expired" 2 !dropped;
  check_int "queue empty" 0 (sched.queue_length 0);
  check_bool "service tag infinite" true
    (Core.Iwfq.service_tag iwfq ~flow:0 = infinity)

let test_iwfq_idle_when_all_bad () =
  let iwfq = Core.Iwfq.create (mk_flows [| 1.; 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  sched.enqueue ~slot:0 (pkt ~flow:0 ~seq:0 ~arrival:0);
  check_bool "idles under universal error" true
    (Option.is_none (sched.select ~slot:0 ~predicted_good:(fun _ -> false)))

let test_iwfq_wf2q_selection_mode () =
  (* With WF2Q selection, a flow whose fluid service has not started yet
     defers to one whose service has. *)
  let params =
    { (Core.Params.iwfq_defaults ~n_flows:2) with wf2q_selection = true }
  in
  let iwfq = Core.Iwfq.create ~params (mk_flows [| 3.; 1. |]) in
  let sched = Core.Iwfq.instance iwfq in
  for seq = 0 to 2 do
    sched.enqueue ~slot:0 (pkt ~flow:0 ~seq ~arrival:0)
  done;
  sched.enqueue ~slot:0 (pkt ~flow:1 ~seq:0 ~arrival:0);
  let first = Option.get (sched.select ~slot:0 ~predicted_good:(fun _ -> true)) in
  check_int "eligible lowest finish first" 0 first

let suite =
  [
    ("fluid equal split", `Quick, test_fluid_equal_split);
    ("fluid weighted split", `Quick, test_fluid_weighted_split);
    ("fluid mid-slot drain", `Quick, test_fluid_drain_midslot);
    ("fluid virtual time", `Quick, test_fluid_virtual_time);
    ("fluid idle v constant", `Quick, test_fluid_idle_constant_v);
    ("fluid work conservation", `Quick, test_fluid_conservation);
    QCheck_alcotest.to_alcotest prop_fluid_fairness;
    QCheck_alcotest.to_alcotest prop_fluid_matches_continuous_gps;
    QCheck_alcotest.to_alcotest prop_fluid_matches_dense;
    ("slot queue tags", `Quick, test_slot_queue_tags);
    ("slot queue tags after idle", `Quick, test_slot_queue_tags_after_idle);
    ("slot queue pop_back", `Quick, test_slot_queue_pop_back);
    ("slot queue lagging count", `Quick, test_slot_queue_lagging_count);
    ("slot queue trim lagging", `Quick, test_slot_queue_trim_lagging);
    ("slot queue trim noop", `Quick, test_slot_queue_trim_noop);
    ("slot queue clamp lead", `Quick, test_slot_queue_clamp_lead);
    ("slot queue clamp chains", `Quick, test_slot_queue_clamp_updates_chain);
    ("spreading counts", `Quick, test_spreading_counts);
    ("spreading interleaves", `Quick, test_spreading_interleaves);
    ("spreading wf2q order", `Quick, test_spreading_wf2q_order);
    ("spreading zero/negative", `Quick, test_spreading_zero_and_negative);
    QCheck_alcotest.to_alcotest prop_spreading_is_permutation;
    QCheck_alcotest.to_alcotest prop_spreading_prefix_proportional;
    ("credit earn and cap", `Quick, test_credit_earn_and_cap);
    ("credit debit", `Quick, test_credit_debit);
    ("credit redeem then spend", `Quick, test_credit_redeem_then_spend);
    ("credit per-frame cap", `Quick, test_credit_per_frame_cap);
    ("iwfq error-free = WFQ order", `Quick, test_iwfq_error_free_is_wfq_order);
    ("iwfq blocked flow precedence", `Quick, test_iwfq_blocked_flow_keeps_tag_precedence);
    ("iwfq lead bound", `Quick, test_iwfq_lead_bound_limits_punishment);
    ("iwfq lag bound", `Quick, test_iwfq_lag_bound_drops_slots);
    ("iwfq drop keeps earliest slot", `Quick, test_iwfq_drop_head_keeps_earliest_slot);
    ("iwfq drop expired", `Quick, test_iwfq_drop_expired);
    ("iwfq idles when all bad", `Quick, test_iwfq_idle_when_all_bad);
    ("iwfq wf2q selection", `Quick, test_iwfq_wf2q_selection_mode);
  ]
