module Ring = Wfs_traffic.Packet.Ring
module Flow_heap = Wfs_util.Flow_heap
module Flow_set = Wfs_util.Flow_set

type flow_state = {
  packets : Ring.t;
  slots : Slot_queue.t;
}

(* Selection is backlog-indexed: [backlog] holds exactly the flows with a
   non-empty queue (|slots| = |packets|, so one index covers both) and
   [heap] keys them by head-slot finish tag, lowest flow id on ties — the
   same flow the naive ascending-id full scan picks.  [naive = true]
   switches [readjust]/[select] back to those O(n_flows) scans; the
   differential qcheck suite drives both modes through identical operation
   sequences and requires identical selections. *)
type t = {
  flows : flow_state array;
  fluid : Fluid_ref.t;
  params : Params.iwfq;
  lag_caps : int array;  (* B_i in packets; always >= 1 (Params.per_flow_lag) *)
  backlog : Flow_set.t;
  heap : Flow_heap.t;
  naive : bool;
  mutable pred : int -> bool;  (* current slot's predicate, during select *)
  mutable cur_v : float;  (* virtual time, for the eligibility accept *)
  mutable accept_eligible : int -> bool;  (* preallocated closure *)
}

let no_pred (_ : int) = false

let create ?params ?(naive = false) flows =
  let n = Array.length flows in
  Array.iteri
    (fun i (f : Params.flow) ->
      if f.id <> i then Wfs_util.Error.invalid_flow_ids "Iwfq.create")
    flows;
  let params =
    match params with Some p -> p | None -> Params.iwfq_defaults ~n_flows:n
  in
  if Array.length params.lead <> n then
    Wfs_util.Error.invalid "Iwfq.create" "lead bounds must match flow count";
  let weights = Array.map (fun (f : Params.flow) -> f.weight) flows in
  let t =
    {
      flows =
        Array.map
          (fun (cfg : Params.flow) ->
            {
              packets = Ring.create ();
              slots =
                Slot_queue.create ~weight:cfg.weight
                  ~max_lead:params.lead.(cfg.id);
            })
          flows;
      fluid = Fluid_ref.create ~weights ();
      params;
      lag_caps = Params.per_flow_lag params ~flows;
      backlog = Flow_set.create ~n;
      heap = Flow_heap.create ~n;
      naive;
      pred = no_pred;
      cur_v = 0.;
      accept_eligible = no_pred;
    }
  in
  t.accept_eligible <-
    (fun i ->
      t.pred i
      &&
      let slots = t.flows.(i).slots in
      (not (Slot_queue.is_empty slots))
      && Slot_queue.head_start slots <= t.cur_v +. Params.eps_tag);
  t

let virtual_time t = Fluid_ref.virtual_time t.fluid

let service_tag t ~flow =
  let fs = t.flows.(flow) in
  if Ring.is_empty fs.packets || Slot_queue.is_empty fs.slots then infinity
  else Slot_queue.head_finish fs.slots

let lag t ~flow =
  let fs = t.flows.(flow) in
  float_of_int (Ring.length fs.packets) -. Fluid_ref.queue t.fluid ~flow

let slot_queue_length t ~flow = Slot_queue.length t.flows.(flow).slots
let fluid t = t.fluid

(* Re-index a flow whose head slot (or emptiness) may have changed. *)
let refresh_flow t i =
  let slots = t.flows.(i).slots in
  if Slot_queue.is_empty slots then begin
    Flow_set.remove t.backlog i;
    Flow_heap.remove t.heap ~flow:i
  end
  else begin
    Flow_set.add t.backlog i;
    Flow_heap.set t.heap ~flow:i ~tag:(Slot_queue.head_finish slots)
  end

(* A drop from the queue tail leaves the head tag alone; only emptiness can
   change the index. *)
let deindex_if_empty t i =
  if Slot_queue.is_empty t.flows.(i).slots then begin
    Flow_set.remove t.backlog i;
    Flow_heap.remove t.heap ~flow:i
  end

(* The head slot only changes when the queue was empty. *)
let enqueue t ~slot:_ (pkt : Wfs_traffic.Packet.t) =
  let fs = t.flows.(pkt.flow) in
  let was_empty = Ring.is_empty fs.packets in
  Fluid_ref.add_arrivals t.fluid ~flow:pkt.flow ~count:1;
  Slot_queue.add fs.slots ~v:(Fluid_ref.virtual_time t.fluid);
  Ring.push fs.packets pkt;
  if was_empty then refresh_flow t pkt.flow

(* [count] fresh packets at once: every one is stamped at the same virtual
   time, so the fluid backlog, the slot tags and the ring each take the
   batch in one call, by the same per-packet additions as [count]
   [enqueue]s. *)
let arrive t ~slot ~flow ~seq ~count =
  let fs = t.flows.(flow) in
  let was_empty = Ring.is_empty fs.packets in
  Fluid_ref.add_arrivals t.fluid ~flow ~count;
  Slot_queue.add_run fs.slots ~v:(Fluid_ref.virtual_time t.fluid) ~count;
  Ring.push_run fs.packets ~seq ~arrival:slot ~count;
  if was_empty then refresh_flow t flow

(* Lag and lead bounds for one flow (Section 4.1, steps 4a-4b).  The lag
   caps are >= 1, so a trim never deletes the head slot and never empties
   the flow; only a lead clamp moves the head tags. *)
let readjust_flow t i fs ~v =
  let deleted =
    Slot_queue.trim_lagging fs.slots ~v ~max_lagging:t.lag_caps.(i)
  in
  (* Drop the newest packets so the flow keeps its earliest (lowest-tag)
     slots. *)
  for _ = 1 to deleted do
    Ring.pop_back fs.packets
  done;
  if Slot_queue.clamp_lead fs.slots ~v && not t.naive then refresh_flow t i

let readjust t ~v =
  if t.naive then
    (* Reference path: visit every flow, as the pre-index code did.  The
       extra visits are no-ops (empty slot queues trim and clamp to
       nothing), which is exactly why the indexed path below is
       byte-identical. *)
    Array.iteri (fun i fs -> readjust_flow t i fs ~v) t.flows
  else
    for k = 0 to Flow_set.cardinal t.backlog - 1 do
      let i = Flow_set.get t.backlog k in
      readjust_flow t i t.flows.(i) ~v
    done

(* Reference selection: the naive ascending-id scan keeping the first
   strictly smaller tag (= lowest id on ties).  Kept as the executable
   specification the heap path is pinned to by the differential tests. *)
let select_naive t ~predicted_good ~v =
  let eligible_start fs =
    (not (Slot_queue.is_empty fs.slots))
    && Slot_queue.head_start fs.slots <= v +. Params.eps_tag
  in
  let best restrict_eligible =
    let best = ref None in
    Array.iteri
      (fun i fs ->
        if
          (not (Ring.is_empty fs.packets))
          && (not (Slot_queue.is_empty fs.slots))
          && predicted_good i
          && ((not restrict_eligible) || eligible_start fs)
        then begin
          let tag = service_tag t ~flow:i in
          match !best with
          | Some (_, best_tag) when best_tag <= tag -> ()
          | Some _ | None -> best := Some (i, tag)
        end)
      t.flows;
    Option.map fst !best
  in
  if t.params.wf2q_selection then
    match best true with Some f -> Some f | None -> best false
  else best false

let[@hot] select t ~slot:_ ~predicted_good =
  let v = Fluid_ref.virtual_time t.fluid in
  readjust t ~v;
  if t.naive then select_naive t ~predicted_good ~v
  else begin
    t.pred <- predicted_good;
    t.cur_v <- v;
    let f =
      if t.params.wf2q_selection then begin
        let f = Flow_heap.min_accept t.heap ~accept:t.accept_eligible in
        if f >= 0 then f else Flow_heap.min_accept t.heap ~accept:predicted_good
      end
      else Flow_heap.min_accept t.heap ~accept:predicted_good
    in
    t.pred <- no_pred;
    if f < 0 then None else Some f
  end

let complete t ~flow =
  let fs = t.flows.(flow) in
  if Slot_queue.is_empty fs.slots || Ring.is_empty fs.packets then
    Wfs_util.Error.empty_queue "Iwfq.complete";
  Slot_queue.pop_front fs.slots;
  Ring.pop_front fs.packets;
  refresh_flow t flow

let fail _t ~flow:_ = ()

(* Head packet dropped (e.g. retransmission limit): the packet leaves but
   the flow keeps its earliest slot; the newest slot is removed instead to
   restore |slots| = |packets| (Section 4.2's dynamic slot/packet
   mapping). *)
let drop_head t ~flow =
  let fs = t.flows.(flow) in
  if Ring.is_empty fs.packets then Wfs_util.Error.empty_queue "Iwfq.drop_head";
  Ring.pop_front fs.packets;
  if not (Slot_queue.is_empty fs.slots) then Slot_queue.pop_back fs.slots;
  deindex_if_empty t flow

let queue_length t flow = Ring.length t.flows.(flow).packets
let on_slot_end t ~slot:_ = Fluid_ref.step t.fluid

(* An empty real backlog does not mean an empty fluid reference: the fluid
   server drains a packet's worth per busy slot, so it can lag the real
   system by a few slots.  Step it per-slot while it still carries fluid
   (each such step moves v and service, observable via the probe and
   packet tags), then collapse the genuinely dead remainder into one slot
   counter addition. *)
let[@hot] advance_quiescent t ~now:_ ~slots =
  let k = ref 0 in
  while !k < slots && Fluid_ref.is_busy t.fluid do
    Fluid_ref.step t.fluid;
    incr k
  done;
  if !k < slots then Fluid_ref.skip_idle t.fluid ~slots:(slots - !k);
  slots

let instance t =
  {
    Wireless_sched.name = "IWFQ";
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
        virtual_time = Some (fun () -> virtual_time t);
        finish_tag = Some (fun flow -> service_tag t ~flow);
        work_conserving = true;
      };
    (* IWFQ's lag is derived (real queue vs. fluid-reference queue), not a
       flow-attached account: there is nothing to serialize that survives
       leaving this cell's fluid reference behind. *)
    handoff = None;
    quiescent =
      Some
        {
          backlog_empty = (fun () -> Flow_set.cardinal t.backlog = 0);
          advance_quiescent =
            (fun ~now ~slots -> advance_quiescent t ~now ~slots);
        };
  }
