(* Tests for the WPS engine: frame construction, the four mechanisms
   (spreading, intra/inter-frame swapping, credits/debits, prediction
   handling), variant semantics, and the Section 7 starvation pathology. *)

module Core = Wfs_core
module Packet = Wfs_traffic.Packet
module Tracelog = Wfs_core.Tracelog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_flows ?(drop = Core.Params.No_drop) weights =
  Array.mapi (fun id w -> Core.Params.flow ~id ~weight:w ~drop ()) weights

let pkt ~flow ~seq ~arrival = Packet.make ~flow ~seq ~arrival ()

let fill sched ~flow ~count =
  for seq = 0 to count - 1 do
    sched.Core.Wireless_sched.enqueue ~slot:0 (pkt ~flow ~seq ~arrival:0)
  done

let all_good _ = true

(* Run [slots] selections with every channel good, recording who sends. *)
let run_good sched ~slots =
  List.init slots (fun slot ->
      match sched.Core.Wireless_sched.select ~slot ~predicted_good:all_good with
      | Some f ->
          sched.complete ~flow:f;
          sched.on_slot_end ~slot;
          f
      | None ->
          sched.on_slot_end ~slot;
          -1)

let test_wrr_weighted_frames () =
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 2.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:9;
  fill sched ~flow:1 ~count:9;
  let order = run_good sched ~slots:6 in
  check_int "flow0 gets 2/3" 4 (List.length (List.filter (fun f -> f = 0) order));
  check_int "flow1 gets 1/3" 2 (List.length (List.filter (fun f -> f = 1) order))

let test_frames_spread_not_clustered () =
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 2.; 2. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:8;
  fill sched ~flow:1 ~count:8;
  let order = run_good sched ~slots:4 in
  Alcotest.(check (list int)) "wf2q spread" [ 0; 1; 0; 1 ] order

let test_work_conserving_when_peer_empty () =
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 1.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:4;
  let order = run_good sched ~slots:4 in
  Alcotest.(check (list int)) "flow0 uses all slots" [ 0; 0; 0; 0 ] order

let test_midframe_backlog_waits_for_next_frame () =
  (* A flow becoming backlogged mid-frame stays out until the next frame
     (Section 7 requirement (c)). *)
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 1.; 2. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:1 ~count:10;
  (* Frame is built for flow1 alone at slot 0. *)
  let first = Option.get (sched.select ~slot:0 ~predicted_good:all_good) in
  check_int "frame of flow1" 1 first;
  sched.complete ~flow:1;
  sched.on_slot_end ~slot:0;
  (* flow0 arrives mid-frame: invisible until the frame ends. *)
  sched.enqueue ~slot:1 (pkt ~flow:0 ~seq:0 ~arrival:1);
  let second = Option.get (sched.select ~slot:1 ~predicted_good:all_good) in
  check_int "still flow1's frame" 1 second;
  sched.complete ~flow:1;
  sched.on_slot_end ~slot:1;
  (* Next frame includes flow0: spread of weights (1,2) is [1;0;1]. *)
  let third = Option.get (sched.select ~slot:2 ~predicted_good:all_good) in
  check_int "new frame starts with flow1" 1 third;
  sched.complete ~flow:1;
  sched.on_slot_end ~slot:2;
  let fourth = Option.get (sched.select ~slot:3 ~predicted_good:all_good) in
  check_int "flow0 admitted in the new frame" 0 fourth

let test_blind_transmits_into_error () =
  let wps = Core.Wps.create ~params:Core.Params.blind_wrr (mk_flows [| 1.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:2;
  fill sched ~flow:1 ~count:2;
  (* Even with flow0 predicted bad, Blind WRR schedules it. *)
  let sel = Option.get (sched.select ~slot:0 ~predicted_good:(fun f -> f = 1)) in
  check_int "blind ignores prediction" 0 sel

let test_wrr_skips_error_slot () =
  (* Plain WRR wastes the skipped slot (Section 8: "skipping the slot");
     the next in-frame flow transmits in the *next* physical slot. *)
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 1.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:2;
  fill sched ~flow:1 ~count:2;
  check_bool "skipped slot idles" true
    (Option.is_none (sched.select ~slot:0 ~predicted_good:(fun f -> f = 1)));
  sched.on_slot_end ~slot:0;
  let sel = Option.get (sched.select ~slot:1 ~predicted_good:(fun f -> f = 1)) in
  check_int "next flow transmits next slot" 1 sel

let test_idle_when_universal_error () =
  List.iter
    (fun params ->
      let wps = Core.Wps.create ~params (mk_flows [| 1.; 1. |]) in
      let sched = Core.Wps.instance wps in
      fill sched ~flow:0 ~count:2;
      fill sched ~flow:1 ~count:2;
      check_bool "idles" true
        (Option.is_none (sched.select ~slot:0 ~predicted_good:(fun _ -> false))))
    [ Core.Params.wrr; Core.Params.noswap (); Core.Params.swapa () ]

let test_noswap_earns_credit () =
  let wps = Core.Wps.create ~params:(Core.Params.noswap ()) (mk_flows [| 1.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:4;
  fill sched ~flow:1 ~count:4;
  (* Frame [0;1]: flow0 bad -> skipped with credit; flow1 transmits. *)
  let sel = Option.get (sched.select ~slot:0 ~predicted_good:(fun f -> f = 1)) in
  check_int "flow1 substitutes" 1 sel;
  sched.complete ~flow:1;
  sched.on_slot_end ~slot:0;
  (* Next frame settles credits: flow0 banked 1. *)
  ignore (sched.select ~slot:1 ~predicted_good:all_good);
  check_int "credit earned" 1 (Core.Wps.credit wps ~flow:0);
  check_int "boosted effective weight" 2 (Core.Wps.effective_weight wps ~flow:0)

let test_wrr_never_credits () =
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 1.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:4;
  fill sched ~flow:1 ~count:4;
  ignore (sched.select ~slot:0 ~predicted_good:(fun f -> f = 1));
  sched.complete ~flow:1;
  sched.on_slot_end ~slot:0;
  ignore (sched.select ~slot:1 ~predicted_good:all_good);
  check_int "no credits in WRR" 0 (Core.Wps.credit wps ~flow:0)

let test_no_credit_for_empty_queue () =
  (* A flow that drains mid-frame must not earn credit for unused slots. *)
  let wps = Core.Wps.create ~params:(Core.Params.swapa ()) (mk_flows [| 3.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:1;
  (* Only 1 packet though weight 3 *)
  fill sched ~flow:1 ~count:5;
  (* frame: [0;1;0;0] (wf2q spread of 3,1) *)
  let order = run_good sched ~slots:4 in
  check_int "flow0 transmits once" 1 (List.length (List.filter (fun f -> f = 0) order));
  (* settle at next frame *)
  ignore (sched.select ~slot:5 ~predicted_good:all_good);
  check_int "no idleness credit" 0 (Core.Wps.credit wps ~flow:0)

let test_swapw_intra_frame_swap () =
  let trace = Tracelog.create () in
  let wps =
    Core.Wps.create ~params:(Core.Params.swapw ()) ~trace (mk_flows [| 1.; 1. |])
  in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:4;
  fill sched ~flow:1 ~count:4;
  (* flow0's slot is bad; flow1 later in frame is good -> swap. *)
  let sel = Option.get (sched.select ~slot:0 ~predicted_good:(fun f -> f = 1)) in
  check_int "swapped-in flow transmits now" 1 sel;
  let swaps =
    Tracelog.count trace (fun e ->
        match e.Tracelog.event with Tracelog.Swap _ -> true | _ -> false)
  in
  check_int "swap recorded" 1 swaps;
  sched.complete ~flow:1;
  sched.on_slot_end ~slot:0;
  (* flow0 now holds the later slot; if its channel recovered it
     transmits there — same frame. *)
  let sel = Option.get (sched.select ~slot:1 ~predicted_good:all_good) in
  check_int "original flow keeps a chance in-frame" 0 sel

let test_swapa_debits_the_substitute () =
  let wps =
    Core.Wps.create ~params:(Core.Params.swapa ()) (mk_flows [| 1.; 1.; 1. |])
  in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:6;
  fill sched ~flow:1 ~count:6;
  fill sched ~flow:2 ~count:6;
  (* flow0 bad the whole frame; flows 1,2 good.  Frame [0;1;2]: flow0's
     slot: intra-swap moves a later flow up; by frame end flow0 missed its
     slot and someone transmitted 2 slots. *)
  let order =
    List.init 3 (fun slot ->
        match sched.select ~slot ~predicted_good:(fun f -> f <> 0) with
        | Some f ->
            sched.complete ~flow:f;
            sched.on_slot_end ~slot;
            f
        | None ->
            sched.on_slot_end ~slot;
            -1)
  in
  check_bool "no idle slots" true (not (List.mem (-1) order));
  (* settle *)
  ignore (sched.select ~slot:3 ~predicted_good:all_good);
  check_int "flow0 credited" 1 (Core.Wps.credit wps ~flow:0);
  let debit_total =
    Core.Wps.credit wps ~flow:1 + Core.Wps.credit wps ~flow:2
  in
  check_int "one debit among substitutes" (-1) debit_total

let test_debit_limit_respected () =
  let wps =
    Core.Wps.create
      ~params:(Core.Params.swapa ~credit_limit:4 ~debit_limit:0 ())
      (mk_flows [| 1.; 1. |])
  in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:8;
  fill sched ~flow:1 ~count:8;
  (* flow0 always bad: flow1 repeatedly substitutes, but with debit 0 its
     balance never goes negative. *)
  for slot = 0 to 5 do
    (match sched.select ~slot ~predicted_good:(fun f -> f = 1) with
    | Some f -> sched.complete ~flow:f
    | None -> ());
    sched.on_slot_end ~slot
  done;
  check_bool "no debt below limit" true (Core.Wps.credit wps ~flow:1 >= 0)

let test_credit_limit_respected () =
  let wps =
    Core.Wps.create
      ~params:(Core.Params.swapa ~credit_limit:2 ~debit_limit:4 ())
      (mk_flows [| 1.; 1. |])
  in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:20;
  fill sched ~flow:1 ~count:20;
  for slot = 0 to 11 do
    (match sched.select ~slot ~predicted_good:(fun f -> f = 1) with
    | Some f -> sched.complete ~flow:f
    | None -> ());
    sched.on_slot_end ~slot
  done;
  check_bool "credit capped" true (Core.Wps.credit wps ~flow:0 <= 2)

let test_indebted_flow_sits_out () =
  (* A flow with debt >= weight gets no slots until the debt decays. *)
  let wps =
    Core.Wps.create ~params:(Core.Params.swapa ()) (mk_flows [| 1.; 1. |])
  in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:10;
  fill sched ~flow:1 ~count:10;
  (* flow0 bad for 4 slots: flow1 accumulates debt 2 while flow0 credits 2. *)
  for slot = 0 to 3 do
    (match sched.select ~slot ~predicted_good:(fun f -> f = 1) with
    | Some f -> sched.complete ~flow:f
    | None -> ());
    sched.on_slot_end ~slot
  done;
  (* Both now good: flow0 redeems its credits first; flow1 must wait. *)
  let order = run_good sched ~slots:3 in
  check_bool "flow0 monopolises the catch-up frame" true
    (List.for_all (fun f -> f = 0) order)

let test_tag_precedence_vs_slotted_access () =
  (* Section 7's worst-case discussion: IWFQ keeps precedence history in
     tags, so a mostly-errored flow transmits in *every* good slot it
     sees; WPS contends only in (shifted) designated slots and can miss
     good slots.  The flow's channel is good 1 slot in 5; the peers are
     saturated and error-free. *)
  let horizon = 500 in
  let n = 5 in
  let good_for_flow0 slot = slot mod 5 = 2 in
  let served_flow0 sched =
    fill sched ~flow:0 ~count:1000;
    for f = 1 to n - 1 do
      fill sched ~flow:f ~count:1000
    done;
    let count = ref 0 in
    for slot = 0 to horizon - 1 do
      (match
         sched.Core.Wireless_sched.select ~slot ~predicted_good:(fun f ->
             if f = 0 then good_for_flow0 slot else true)
       with
      | Some 0 ->
          incr count;
          sched.complete ~flow:0
      | Some f -> sched.complete ~flow:f
      | None -> ());
      sched.on_slot_end ~slot
    done;
    !count
  in
  let weights = Array.make n 1. in
  let wrr_f0 =
    served_flow0
      (Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr (mk_flows weights)))
  in
  let iwfq_f0 =
    served_flow0 (Core.Iwfq.instance (Core.Iwfq.create (mk_flows weights))) in
  (* 100 good slots in the horizon: IWFQ uses essentially all of them. *)
  check_bool "IWFQ uses every good slot" true (iwfq_f0 >= 95);
  check_bool "WRR misses good slots" true (wrr_f0 < iwfq_f0)

let test_frame_snapshot_and_position () =
  let wps = Core.Wps.create ~params:Core.Params.wrr (mk_flows [| 1.; 1. |]) in
  let sched = Core.Wps.instance wps in
  fill sched ~flow:0 ~count:2;
  fill sched ~flow:1 ~count:2;
  ignore (sched.select ~slot:0 ~predicted_good:all_good);
  check_int "position advanced" 1 (Core.Wps.frame_position wps);
  check_int "one slot left" 1 (Array.length (Core.Wps.frame_snapshot wps))

let test_swap_window_limits_reach () =
  (* Frame [0;1;2;3]: with window 1, flow0's bad slot cannot reach flow1 at
     distance 1... window w allows positions pos+1..pos+w-1?  The window
     counts slots ahead: w=1 means only pos+0 — no swap at all; w=2 reaches
     the next slot. *)
  (* Only flow 3 (last in frame) has a good channel; flows 0-2 bad. *)
  let pred f = f = 3 in
  (* Whole frame: the intra swap relocates flow 0 into flow 3's old slot,
     so flow 0 keeps an in-frame chance. *)
  let wps_full =
    Core.Wps.create ~params:(Core.Params.swapa ()) (mk_flows [| 1.; 1.; 1.; 1. |])
  in
  let s = Core.Wps.instance wps_full in
  for f = 0 to 3 do
    fill s ~flow:f ~count:4
  done;
  Alcotest.(check int) "whole frame swaps in flow3" 3
    (Option.get (s.select ~slot:0 ~predicted_good:pred));
  Alcotest.(check (array int)) "flow0 relocated in frame" [| 1; 2; 0 |]
    (Core.Wps.frame_snapshot wps_full);
  (* Window 2 from position 0 reaches position 1 only (flow 1, bad): no
     intra swap; the ring (inter-frame) still finds flow 3, and the frame
     order is untouched. *)
  let wps_win =
    Core.Wps.create
      ~params:(Core.Params.swapa ~swap_window:2 ())
      (mk_flows [| 1.; 1.; 1.; 1. |])
  in
  let s = Core.Wps.instance wps_win in
  for f = 0 to 3 do
    fill s ~flow:f ~count:4
  done;
  Alcotest.(check int) "window too short, ring supplies flow3" 3
    (Option.get (s.select ~slot:0 ~predicted_good:pred));
  Alcotest.(check (array int)) "frame order untouched" [| 1; 2; 3 |]
    (Core.Wps.frame_snapshot wps_win)

let test_validate_params () =
  Alcotest.check_raises "inter-frame swap needs credits"
    (Invalid_argument "Params: inter-frame swapping requires credit accounting")
    (fun () ->
      Core.Params.validate_wps
        {
          Core.Params.blind_wrr with
          swap_inter = true;
          swap_intra = true;
          skip_on_predicted_error = true;
        })

let suite =
  [
    ("wrr weighted frames", `Quick, test_wrr_weighted_frames);
    ("frames are spread", `Quick, test_frames_spread_not_clustered);
    ("work conserving on empty peer", `Quick, test_work_conserving_when_peer_empty);
    ("mid-frame backlog waits", `Quick, test_midframe_backlog_waits_for_next_frame);
    ("blind transmits into error", `Quick, test_blind_transmits_into_error);
    ("wrr skips error slot", `Quick, test_wrr_skips_error_slot);
    ("idle under universal error", `Quick, test_idle_when_universal_error);
    ("noswap earns credit", `Quick, test_noswap_earns_credit);
    ("wrr never credits", `Quick, test_wrr_never_credits);
    ("no credit for empty queue", `Quick, test_no_credit_for_empty_queue);
    ("swapw intra-frame swap", `Quick, test_swapw_intra_frame_swap);
    ("swapa debits substitute", `Quick, test_swapa_debits_the_substitute);
    ("debit limit respected", `Quick, test_debit_limit_respected);
    ("credit limit respected", `Quick, test_credit_limit_respected);
    ("indebted flow sits out", `Quick, test_indebted_flow_sits_out);
    ("tag precedence vs slotted access", `Quick, test_tag_precedence_vs_slotted_access);
    ("frame snapshot/position", `Quick, test_frame_snapshot_and_position);
    ("swap window limits reach", `Quick, test_swap_window_limits_reach);
    ("param validation", `Quick, test_validate_params);
  ]
