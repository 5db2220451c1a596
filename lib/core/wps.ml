module Packet = Wfs_traffic.Packet
module Ring = Wfs_util.Ring
module Flow_set = Wfs_util.Flow_set

type flow_state = {
  weight_int : int;
  packets : Packet.Ring.t;
  credit : Credit.t;
  mutable attempts : int;  (* transmissions counted against this frame *)
  mutable eff : int;  (* effective weight of the current frame *)
  mutable in_frame : bool;  (* participates in the current frame's accounts *)
  mutable contending : bool;
      (* still eligible to transmit this frame; cleared when the flow drains
         its queue mid-frame (it then stays out until the next frame even if
         it refills — Section 7 requirement (c)) *)
}

(* [backlog] indexes the flows with a non-empty queue so frame builds and
   accounting touch only members instead of the whole flow array; the
   per-frame fields above are non-default only for flows in [frame_flows]
   (the members of the current frame, ascending), which is what lets
   [new_frame] close accounts by walking that list alone.  [naive = true]
   (differential testing) rebuilds frames with the original dense
   whole-array scans instead; selection logic is shared, so both modes are
   byte-identical. *)
type t = {
  params : Params.wps;
  flows : flow_state array;
  backlog : Flow_set.t;
  mutable frame : int array;  (* flow id per slot; -1 = deleted *)
  mutable pos : int;
  mutable frame_flows : int list;  (* current frame's members, ascending *)
  ring : int Ring.t;  (* cross-frame swap ring, marker persists *)
  mutable ring_members : int list;  (* backlogged set the ring was built from *)
  naive : bool;
  trace : Tracelog.t option;
}

let int_weight w =
  let k = int_of_float (Float.round w) in
  if k < 1 then 1 else k

let create ?params ?limits ?(naive = false) ?trace flows =
  let params = match params with Some p -> p | None -> Params.swapa () in
  Params.validate_wps params;
  Array.iteri
    (fun i (f : Params.flow) ->
      if f.id <> i then Wfs_util.Error.invalid_flow_ids "Wps.create")
    flows;
  (match limits with
  | Some l when Array.length l <> Array.length flows ->
      Wfs_util.Error.invalid "Wps.create" "limits must match flow count"
  | Some _ | None -> ());
  {
    params;
    flows =
      Array.mapi
        (fun i (cfg : Params.flow) ->
          let weight_int = int_weight cfg.weight in
          let credit_limit, debit_limit =
            match limits with
            | Some l -> l.(i)
            | None -> (params.credit_limit, params.debit_limit)
          in
          {
            weight_int;
            packets = Packet.Ring.create ();
            credit =
              Credit.create ~credit_limit ~debit_limit
                ?credit_per_frame:params.credit_per_frame ~weight:weight_int ();
            attempts = 0;
            eff = 0;
            in_frame = false;
            contending = false;
          })
        flows;
    backlog = Flow_set.create ~n:(Array.length flows);
    frame = [||];
    pos = 0;
    frame_flows = [];
    ring = Ring.create [||];
    ring_members = [];
    naive;
    trace;
  }

let record t ~slot ev =
  match t.trace with None -> () | Some tr -> Tracelog.record tr ~slot ev

let backlogged fs = not (Packet.Ring.is_empty fs.packets)

(* Compact (flow, weight) arrays for a sparse frame build. *)
let member_weights t members weight_of =
  let m = List.length members in
  let ids = Array.make m (-1) in
  let eff = Array.make m 0 in
  List.iteri
    (fun k i ->
      ids.(k) <- i;
      eff.(k) <- weight_of t.flows.(i))
    members;
  (ids, eff)

(* Rebuild the cross-frame swap ring when the known-backlogged set changes
   (the paper's "new queue phase"), spread by default weights. *)
let refresh_ring t members =
  if not (List.equal Int.equal members t.ring_members) then begin
    let seq =
      if t.naive then
        let weights =
          Array.mapi
            (fun i fs -> if List.memq i members then fs.weight_int else 0)
            t.flows
        in
        Spreading.frame ~weights
      else
        let ids, eff = member_weights t members (fun fs -> fs.weight_int) in
        Spreading.frame_sparse ~flows:ids ~weights:eff
    in
    Ring.rebuild t.ring seq;
    t.ring_members <- members
  end

let close_frame_accounts t fs =
  if fs.in_frame && t.params.credits then
    Credit.end_frame fs.credit ~attempts:fs.attempts;
  fs.attempts <- 0;
  fs.in_frame <- false;
  fs.contending <- false;
  fs.eff <- 0

(* Close the previous frame's accounts and open a new frame over the flows
   known backlogged now. *)
let new_frame t ~slot =
  if t.naive then Array.iter (close_frame_accounts t) t.flows
  else List.iter (fun i -> close_frame_accounts t t.flows.(i)) t.frame_flows;
  let members =
    if t.naive then begin
      let members = ref [] in
      Array.iteri
        (fun i fs -> if backlogged fs then members := i :: !members)
        t.flows;
      List.rev !members
    end
    else Flow_set.elements t.backlog
  in
  List.iter
    (fun i ->
      let fs = t.flows.(i) in
      fs.in_frame <- true;
      fs.contending <- true;
      fs.eff <-
        (if t.params.credits then Credit.begin_frame fs.credit else fs.weight_int))
    members;
  (t.frame <-
     (if t.naive then
        let weights =
          Array.map (fun fs -> if fs.in_frame then fs.eff else 0) t.flows
        in
        Spreading.frame ~weights
      else
        let ids, eff = member_weights t members (fun fs -> fs.eff) in
        Spreading.frame_sparse ~flows:ids ~weights:eff));
  t.pos <- 0;
  t.frame_flows <- members;
  refresh_ring t members;
  if Array.length t.frame > 0 then
    record t ~slot (Tracelog.Frame_start { length = Array.length t.frame })

(* A flow drained its queue mid-frame: delete its remaining slots and make
   sure the unused grant does not turn into credit (empty queues are not
   compensable — only channel error is). *)
let drop_from_frame t f =
  let fs = t.flows.(f) in
  for i = t.pos to Array.length t.frame - 1 do
    if t.frame.(i) = f then t.frame.(i) <- -1
  done;
  fs.contending <- false;
  if fs.attempts < fs.eff then fs.attempts <- fs.eff

(* "No flow can transmit" for the exception case is read as universal
   channel error: if some contending flow's channel is good, the blocked
   flow's miss is attributable to its own channel error and stays
   compensable even when the good-channel peers happen to have empty
   queues (the fluid model compensates error, never idleness).  Contending
   flows are a subset of the current frame's members, so only those need
   scanning (order is irrelevant: pure existence). *)
let exists_good_channel t ~predicted_good =
  if t.naive then begin
    let found = ref false in
    Array.iteri
      (fun i fs ->
        if (not !found) && fs.contending && predicted_good i then found := true)
      t.flows;
    !found
  end
  else
    List.exists
      (fun i -> t.flows.(i).contending && predicted_good i)
      t.frame_flows

(* Intra-frame swap: find a later slot in the frame held by a flow that is
   backlogged and predicted good, and exchange it with position [pos]. *)
let rec swap_scan t ~predicted_good ~slot f limit j =
  if j >= limit then false
  else begin
    let g = t.frame.(j) in
    if g >= 0 && g <> f && backlogged t.flows.(g) && predicted_good g then begin
      t.frame.(j) <- f;
      t.frame.(t.pos) <- g;
      record t ~slot (Tracelog.Swap { from_flow = f; to_flow = g });
      true
    end
    else swap_scan t ~predicted_good ~slot f limit (j + 1)
  end

let try_swap_intra t ~predicted_good ~slot =
  let f = t.frame.(t.pos) in
  let limit =
    match t.params.swap_window with
    | None -> Array.length t.frame
    | Some w -> Int.min (Array.length t.frame) (t.pos + w)
  in
  swap_scan t ~predicted_good ~slot f limit (t.pos + 1)

(* Cross-frame reallocation: hand the slot to the next good backlogged flow
   on the marker ring; accounts settle implicitly through attempts. *)
let try_swap_inter t ~predicted_good ~slot =
  let f = t.frame.(t.pos) in
  let eligible g =
    g <> f && t.flows.(g).contending && backlogged t.flows.(g) && predicted_good g
  in
  match Ring.next_matching t.ring eligible with
  | Some g ->
      record t ~slot (Tracelog.Swap { from_flow = f; to_flow = g });
      Some g
  | None -> None

(* Bounded by frame rebuilds: each pass either consumes a frame position
   or rebuilds an exhausted frame, and an empty rebuild idles. *)
let[@hot] rec pick t ~slot ~predicted_good ~rebuilt =
  if t.pos >= Array.length t.frame then
    if rebuilt then None
    else begin
      new_frame t ~slot;
      if Array.length t.frame = 0 then None
      else pick t ~slot ~predicted_good ~rebuilt:true
    end
  else begin
    let f = t.frame.(t.pos) in
    if f < 0 then begin
      t.pos <- t.pos + 1;
      pick t ~slot ~predicted_good ~rebuilt
    end
    else begin
      let fs = t.flows.(f) in
      if not (backlogged fs) then begin
        (* Case 1: the flow has no queue. *)
        drop_from_frame t f;
        pick t ~slot ~predicted_good ~rebuilt
      end
      else if predicted_good f || not t.params.skip_on_predicted_error then begin
        (* Case 4 (or Blind WRR transmitting into the error). *)
        t.pos <- t.pos + 1;
        fs.attempts <- fs.attempts + 1;
        Some f
      end
      else if t.params.swap_intra && try_swap_intra t ~predicted_good ~slot
      then
        (* Case 3a: the swapped-in flow now owns position [pos]. *)
        pick t ~slot ~predicted_good ~rebuilt
      else if t.params.swap_inter then begin
        if not (exists_good_channel t ~predicted_good) then begin
          (* Case 2: universal channel error; no credit for the missed
             slot. *)
          fs.attempts <- fs.attempts + 1;
          t.pos <- t.pos + 1;
          None
        end
        else
          (* Case 3b: cross-frame swap via the marker ring; if every
             good-channel peer is idle the slot is skipped with the
             credit kept (attempts untouched). *)
          match try_swap_inter t ~predicted_good ~slot with
          | Some g ->
              t.pos <- t.pos + 1;
              t.flows.(g).attempts <- t.flows.(g).attempts + 1;
              Some g
          | None ->
              t.pos <- t.pos + 1;
              pick t ~slot ~predicted_good ~rebuilt
      end
      else if not t.params.credits then begin
        (* Plain WRR "skips the slot": the physical slot is wasted and
           nothing is owed to anyone (Section 8's WRR-I/P). *)
        fs.attempts <- fs.attempts + 1;
        t.pos <- t.pos + 1;
        None
      end
      else begin
        (* NoSwap / SwapW with no (or failed) intra-frame swap: give the
           flow credit and "skip to the next slot" of the frame within
           the same physical slot — the frame compresses, as in the
           paper's get_next_slot scan.  The unincremented attempt count
           becomes credit at frame end. *)
        t.pos <- t.pos + 1;
        pick t ~slot ~predicted_good ~rebuilt
      end
    end
  end

let select t ~slot ~predicted_good = pick t ~slot ~predicted_good ~rebuilt:false

let enqueue t ~slot:_ (pkt : Packet.t) =
  let q = t.flows.(pkt.flow).packets in
  Packet.Ring.push q pkt;
  if Packet.Ring.length q = 1 then Flow_set.add t.backlog pkt.flow

(* Pop the head packet, keeping the backlog index in step. *)
let pop t ~flow ~who =
  let q = t.flows.(flow).packets in
  if Packet.Ring.is_empty q then Wfs_util.Error.empty_queue who;
  Packet.Ring.pop_front q;
  if Packet.Ring.is_empty q then Flow_set.remove t.backlog flow

let complete t ~flow = pop t ~flow ~who:"Wps.complete"
let fail _t ~flow:_ = ()
let drop_head t ~flow = pop t ~flow ~who:"Wps.drop_head"
let queue_length t flow = Packet.Ring.length t.flows.(flow).packets
let on_slot_end _t ~slot:_ = ()

let name_of_params (p : Params.wps) =
  if not p.skip_on_predicted_error then "BlindWRR"
  else if not p.credits then "WRR"
  else if p.swap_inter then "SwapA"
  else if p.swap_intra then "SwapW"
  else "NoSwap"

let instance t =
  {
    Wireless_sched.name = name_of_params t.params;
    enqueue = (fun ~slot pkt -> enqueue t ~slot pkt);
    select = (fun ~slot ~predicted_good -> select t ~slot ~predicted_good);
    packets = (fun flow -> t.flows.(flow).packets);
    complete = (fun ~flow -> complete t ~flow);
    fail = (fun ~flow -> fail t ~flow);
    drop_head = (fun ~flow -> drop_head t ~flow);
    queue_length = queue_length t;
    on_slot_end = (fun ~slot -> on_slot_end t ~slot);
    probe =
      {
        Wireless_sched.no_probe with
        credit =
          Some
            (fun flow ->
              let c = t.flows.(flow).credit in
              (Credit.balance c, Credit.credit_limit c, Credit.debit_limit c));
        (* Frame membership means a backlogged clean flow outside the
           current frame legitimately idles the slot (Section 7(c)). *)
        work_conserving = false;
      };
    handoff =
      (* §7 credit is the flow-attached compensation state; the frame and
         marker ring are cell-local and rebuilt at the new base station. *)
      Some
        {
          Wireless_sched.export =
            (fun ~flow ->
              {
                Wireless_sched.lag = 0.;
                credit = Credit.balance t.flows.(flow).credit;
              });
          import =
            (fun ~flow carry ->
              {
                Wireless_sched.lag = 0.;
                credit = Credit.admit t.flows.(flow).credit carry.Wireless_sched.credit;
              });
        };
    quiescent =
      (* The first idle select is genuine work: it tears the stale frame
         down (dropping departed members, closing credit accounts at the
         frame boundary) and leaves members/frame/ring empty.  Every later
         idle select is observationally a no-op — with nothing backlogged
         the frame stays empty and the predictor is provably never
         consulted (all pick branches require backlog).  So one real
         select absorbs the whole window; the constant-false predictor
         stands in for the never-read prediction. *)
      Some
        {
          Wireless_sched.backlog_empty =
            (fun () -> Flow_set.cardinal t.backlog = 0);
          advance_quiescent =
            (fun ~now ~slots ->
              if slots > 0 then
                (match select t ~slot:now ~predicted_good:(fun _ -> false) with
                | None -> ()
                | Some f ->
                    Wfs_util.Error.invalidf "Wps.advance_quiescent"
                      "selected flow %d with empty backlog" f);
              slots);
        };
  }

let credit t ~flow = Credit.balance t.flows.(flow).credit
let effective_weight t ~flow = if t.flows.(flow).in_frame then t.flows.(flow).eff else 0

let frame_snapshot t =
  let len = Array.length t.frame in
  let pos = Int.min t.pos len in
  Array.sub t.frame pos (len - pos)

let frame_position t = t.pos
