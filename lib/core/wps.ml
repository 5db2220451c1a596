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
   per-frame fields above are non-default only for the current frame's
   members ([members], ascending), which is what lets [new_frame] close
   accounts by walking those alone.  A frame build writes into buffers
   owned here — [members], [weights] and [sent] have one cell per flow and
   [frame] grows to the longest frame seen — so it allocates nothing while
   the membership stays the same; a membership change respreads [ring].
   [naive = true] (differential testing) rebuilds frames with the original
   dense whole-array scans instead; selection logic is shared, so both
   modes are byte-identical. *)
type t = {
  params : Params.wps;
  flows : flow_state array;
  backlog : Flow_set.t;
  mutable frame : int array;  (* flow id per slot; -1 = deleted *)
  mutable frame_len : int;  (* cells of [frame] in the current frame *)
  mutable pos : int;
  members : int array;  (* current frame's members, ascending *)
  mutable n_members : int;
  weights : int array;  (* spread input: the members' weights *)
  sent : int array;  (* spread scratch *)
  ring : int Ring.t;  (* cross-frame swap ring, marker persists *)
  ring_members : int array;  (* backlogged set the ring was built from *)
  mutable n_ring_members : int;
  naive : bool;
  trace : Tracelog.t option;
  mutable pred : int -> bool;  (* current slot's predicate, during a swap *)
  mutable swap_from : int;  (* flow whose slot a cross-frame swap reassigns *)
  mutable eligible : int -> bool;  (* preallocated swap predicate *)
}

let no_pred (_ : int) = false
let backlogged fs = not (Packet.Ring.is_empty fs.packets)

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
  let n = Array.length flows in
  let t =
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
                  ?credit_per_frame:params.credit_per_frame ~weight:weight_int
                  ();
              attempts = 0;
              eff = 0;
              in_frame = false;
              contending = false;
            })
          flows;
      backlog = Flow_set.create ~n;
      frame = [||];
      frame_len = 0;
      pos = 0;
      members = Array.make n (-1);
      n_members = 0;
      weights = Array.make n 0;
      sent = Array.make n 0;
      ring = Ring.create [||];
      ring_members = Array.make n (-1);
      n_ring_members = 0;
      naive;
      trace;
      pred = no_pred;
      swap_from = -1;
      eligible = no_pred;
    }
  in
  t.eligible <-
    (fun g ->
      g <> t.swap_from
      && t.flows.(g).contending
      && backlogged t.flows.(g)
      && t.pred g);
  t

(* Copy the members' effective weights ([effective]) or default weights
   into [weights]; returns the length of the frame they spread to. *)
let[@hot] fill_weights t ~effective =
  let len = ref 0 in
  for k = 0 to t.n_members - 1 do
    let fs = t.flows.(t.members.(k)) in
    let w = if effective then fs.eff else fs.weight_int in
    t.weights.(k) <- w;
    if w > 0 then len := !len + w
  done;
  !len

(* The members' weights in a dense per-flow array, for the naive path;
   after [new_frame]'s marking, [in_frame] is exactly membership. *)
let dense_weights t ~effective =
  Array.map
    (fun fs ->
      if not fs.in_frame then 0
      else if effective then fs.eff
      else fs.weight_int)
    t.flows

let[@hot] rec same_members_from t k =
  k >= t.n_members
  || (t.members.(k) = t.ring_members.(k) && same_members_from t (k + 1))

(* Rebuild the cross-frame swap ring when the known-backlogged set changes
   (the paper's "new queue phase"), spread by default weights. *)
let refresh_ring t =
  if not (t.n_members = t.n_ring_members && same_members_from t 0) then begin
    let seq =
      if t.naive then
        Spreading.frame ~weights:(dense_weights t ~effective:false)
      else begin
        let seq = Array.make (fill_weights t ~effective:false) (-1) in
        ignore
          (Spreading.spread ~ids:t.members ~weights:t.weights
             ~members:t.n_members ~sent:t.sent ~out:seq);
        seq
      end
    in
    Ring.rebuild t.ring seq;
    Array.blit t.members 0 t.ring_members 0 t.n_members;
    t.n_ring_members <- t.n_members
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
  if t.naive then begin
    Array.iter (close_frame_accounts t) t.flows;
    t.n_members <- 0;
    Array.iteri
      (fun i fs ->
        if backlogged fs then begin
          t.members.(t.n_members) <- i;
          t.n_members <- t.n_members + 1
        end)
      t.flows
  end
  else begin
    for k = 0 to t.n_members - 1 do
      close_frame_accounts t t.flows.(t.members.(k))
    done;
    t.n_members <- Flow_set.cardinal t.backlog;
    for k = 0 to t.n_members - 1 do
      t.members.(k) <- Flow_set.get t.backlog k
    done
  end;
  for k = 0 to t.n_members - 1 do
    let fs = t.flows.(t.members.(k)) in
    fs.in_frame <- true;
    fs.contending <- true;
    fs.eff <-
      (if t.params.credits then Credit.begin_frame fs.credit else fs.weight_int)
  done;
  if t.naive then begin
    t.frame <- Spreading.frame ~weights:(dense_weights t ~effective:true);
    t.frame_len <- Array.length t.frame
  end
  else begin
    let len = fill_weights t ~effective:true in
    if len > Array.length t.frame then
      t.frame <- Array.make (Int.max len (2 * Array.length t.frame)) (-1);
    t.frame_len <-
      Spreading.spread ~ids:t.members ~weights:t.weights ~members:t.n_members
        ~sent:t.sent ~out:t.frame
  end;
  t.pos <- 0;
  refresh_ring t;
  match t.trace with
  | Some tr when t.frame_len > 0 ->
      Tracelog.record tr ~slot (Tracelog.Frame_start { length = t.frame_len })
  | Some _ | None -> ()

(* A flow drained its queue mid-frame: delete its remaining slots and make
   sure the unused grant does not turn into credit (empty queues are not
   compensable — only channel error is). *)
let drop_from_frame t f =
  let fs = t.flows.(f) in
  for i = t.pos to t.frame_len - 1 do
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
let[@hot] rec exists_good_member t ~predicted_good k =
  k < t.n_members
  && ((let i = t.members.(k) in
       t.flows.(i).contending && predicted_good i)
     || exists_good_member t ~predicted_good (k + 1))

let exists_good_channel t ~predicted_good =
  if t.naive then begin
    let found = ref false in
    Array.iteri
      (fun i fs ->
        if (not !found) && fs.contending && predicted_good i then found := true)
      t.flows;
    !found
  end
  else exists_good_member t ~predicted_good 0

let record_swap t ~slot ~from_flow ~to_flow =
  match t.trace with
  | None -> ()
  | Some tr -> Tracelog.record tr ~slot (Tracelog.Swap { from_flow; to_flow })

(* Intra-frame swap: find a later slot in the frame held by a flow that is
   backlogged and predicted good, and exchange it with position [pos]. *)
let rec swap_scan t ~predicted_good ~slot f limit j =
  if j >= limit then false
  else begin
    let g = t.frame.(j) in
    if g >= 0 && g <> f && backlogged t.flows.(g) && predicted_good g then begin
      t.frame.(j) <- f;
      t.frame.(t.pos) <- g;
      record_swap t ~slot ~from_flow:f ~to_flow:g;
      true
    end
    else swap_scan t ~predicted_good ~slot f limit (j + 1)
  end

let try_swap_intra t ~predicted_good ~slot =
  let f = t.frame.(t.pos) in
  let limit =
    match t.params.swap_window with
    | None -> t.frame_len
    | Some w -> Int.min t.frame_len (t.pos + w)
  in
  swap_scan t ~predicted_good ~slot f limit (t.pos + 1)

(* Cross-frame reallocation: hand the slot to the next good backlogged flow
   on the marker ring; accounts settle implicitly through attempts. *)
let[@hot] try_swap_inter t ~predicted_good ~slot =
  let f = t.frame.(t.pos) in
  t.pred <- predicted_good;
  t.swap_from <- f;
  let found = Ring.next_matching t.ring t.eligible in
  t.pred <- no_pred;
  t.swap_from <- -1;
  (match found with
  | Some g -> record_swap t ~slot ~from_flow:f ~to_flow:g
  | None -> ());
  found

(* Bounded by frame rebuilds: each pass either consumes a frame position
   or rebuilds an exhausted frame, and an empty rebuild idles. *)
let[@hot] rec pick t ~slot ~predicted_good ~rebuilt =
  if t.pos >= t.frame_len then
    if rebuilt then None
    else begin
      new_frame t ~slot;
      if t.frame_len = 0 then None
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
          | Some g as found ->
              t.pos <- t.pos + 1;
              t.flows.(g).attempts <- t.flows.(g).attempts + 1;
              found
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
  let was_empty = Packet.Ring.is_empty q in
  Packet.Ring.push q pkt;
  if was_empty then Flow_set.add t.backlog pkt.flow

let arrive t ~slot ~flow ~seq ~count =
  let q = t.flows.(flow).packets in
  let was_empty = Packet.Ring.is_empty q in
  Packet.Ring.push_run q ~seq ~arrival:slot ~count;
  if was_empty then Flow_set.add t.backlog flow

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
    arrive = (fun ~slot ~flow ~seq ~count -> arrive t ~slot ~flow ~seq ~count);
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
  let pos = Int.min t.pos t.frame_len in
  Array.sub t.frame pos (t.frame_len - pos)

let frame_position t = t.pos
