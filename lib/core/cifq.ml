module Packet = Wfs_traffic.Packet
module Flow_heap = Wfs_util.Flow_heap
module Flow_set = Wfs_util.Flow_set

type flow_state = {
  cfg : Params.flow;
  packets : Packet.Ring.t;
  mutable v : float;  (* reference-system virtual time *)
  mutable lag : int;  (* reference service − real service, packets *)
  mutable selected_leading : int;  (* times picked by the reference while leading *)
  mutable relinquished : int;  (* of those, times it gave the slot away *)
}

(* [heap] keys the backlogged (= active) flows by their reference virtual
   time, lowest flow id on ties — the flow the naive ascending-id scan
   picks.  [naive = true] (differential testing) selects with the original
   O(n_flows) scans instead; both paths perform identical mutations. *)
type t = {
  alpha : float;
  flows : flow_state array;
  backlog : Flow_set.t;
  heap : Flow_heap.t;
  naive : bool;
  mutable pred : int -> bool;  (* current slot's predicate, during select *)
  mutable skip : int;  (* reference pick to exclude from redistribution *)
  mutable accept_taker : int -> bool;  (* preallocated closures *)
  mutable accept_other : int -> bool;
  mutable find_taker : unit -> int;
  mutable find_other : unit -> int;
}

let no_pred (_ : int) = false
let no_flow () = -1

let create ?(alpha = 0.9) ?(naive = false) flows =
  if not (alpha >= 0. && alpha <= 1.) then
    Wfs_util.Error.invalid "Cifq.create" "alpha must be in [0,1]";
  Array.iteri
    (fun i (f : Params.flow) ->
      if f.id <> i then Wfs_util.Error.invalid_flow_ids "Cifq.create")
    flows;
  let n = Array.length flows in
  let t =
    {
      alpha;
      flows =
        Array.map
          (fun cfg ->
            {
              cfg;
              packets = Packet.Ring.create ();
              v = 0.;
              lag = 0;
              selected_leading = 0;
              relinquished = 0;
            })
          flows;
      backlog = Flow_set.create ~n;
      heap = Flow_heap.create ~n;
      naive;
      pred = no_pred;
      skip = -1;
      accept_taker = no_pred;
      accept_other = no_pred;
      find_taker = no_flow;
      find_other = no_flow;
    }
  in
  (* Heap membership already implies backlogged, so [can_transmit] reduces
     to the predicted-channel test inside these accepts. *)
  t.accept_taker <-
    (fun j -> j <> t.skip && t.flows.(j).lag > 0 && t.pred j);
  t.accept_other <- (fun j -> j <> t.skip && t.pred j);
  t.find_taker <-
    (fun () -> Flow_heap.min_accept t.heap ~accept:t.accept_taker);
  t.find_other <-
    (fun () -> Flow_heap.min_accept t.heap ~accept:t.accept_other);
  t

let backlogged fs = not (Packet.Ring.is_empty fs.packets)

(* An "active" flow for the reference system: one with real work.  (The
   full CIF-Q also keeps flows active while they are owed/owing service;
   with bounded runs and persistent flows this simplification only affects
   flows that drain completely, whose lag CIF-Q redistributes — we simply
   freeze it.) *)
let active fs = backlogged fs

let min_v_flow t ~pred =
  let best = ref None in
  Array.iteri
    (fun i fs ->
      if pred i fs then
        match !best with
        | Some (_, bv) when bv <= fs.v -> ()
        | Some _ | None -> best := Some (i, fs.v))
    t.flows;
  Option.map fst !best

(* Should a leading flow give this reference slot away?  Deterministic
   α-accounting, called after [selected_leading] was incremented for the
   current selection: relinquish whenever doing so still leaves at least an
   α fraction of its leading selections retained. *)
let must_relinquish t fs =
  float_of_int (fs.selected_leading - fs.relinquished - 1)
  >= (t.alpha *. float_of_int fs.selected_leading) -. Params.eps_tag

(* Reference charge for the picked flow.  The heap tag must follow the new
   virtual time immediately: the taker/redistribution scans below compare
   against the charged value. *)
let charge t i fi =
  fi.v <- fi.v +. (1. /. fi.cfg.Params.weight);
  fi.lag <- fi.lag + 1;
  if backlogged fi then Flow_heap.set t.heap ~flow:i ~tag:fi.v

(* Steps 2-4 of the per-slot rule, shared by the naive and indexed paths;
   [taker] and [other] find the redistribution candidates (excluding [i])
   among backlogged flows with a (predicted) good channel — lagging flows
   first, then anyone — or return -1.  Returns the transmitter, -1 for an
   idle slot. *)
let[@hot] finish_select t i ~can_transmit_i ~taker ~other =
  let fi = t.flows.(i) in
  let keeps =
    if not can_transmit_i then false
    else if fi.lag - 1 < 0 then begin
      (* Leading (lag was negative before the charge).  The α account only
         counts selections where relinquishing was possible — a lagging
         flow stood ready to take the slot — so uncontested slots never
         build up a give-away debt. *)
      let taker_exists = taker () >= 0 in
      if taker_exists then begin
        fi.selected_leading <- fi.selected_leading + 1;
        if must_relinquish t fi then begin
          fi.relinquished <- fi.relinquished + 1;
          false
        end
        else true
      end
      else true
    end
    else true
  in
  let transmitter =
    if keeps then i
    else
      let j = taker () in
      if j >= 0 then j
      else
        let j = other () in
        if j >= 0 then j else if can_transmit_i then i else -1
  in
  if transmitter >= 0 then
    t.flows.(transmitter).lag <- t.flows.(transmitter).lag - 1;
  transmitter

(* Reference path: the original O(n_flows) scans, kept as the executable
   specification the heap path is pinned to by the differential tests. *)
let select_naive t ~predicted_good =
  match min_v_flow t ~pred:(fun _ fs -> active fs) with
  | None -> None
  | Some i ->
      let fi = t.flows.(i) in
      charge t i fi;
      let can_transmit j = backlogged t.flows.(j) && predicted_good j in
      let k =
        finish_select t i ~can_transmit_i:(can_transmit i)
          ~taker:(fun () ->
            Option.value ~default:(-1)
              (min_v_flow t ~pred:(fun j fs ->
                   j <> i && fs.lag > 0 && can_transmit j)))
          ~other:(fun () ->
            Option.value ~default:(-1)
              (min_v_flow t ~pred:(fun j _ -> j <> i && can_transmit j)))
      in
      if k < 0 then None else Some k

let[@hot] select t ~slot:_ ~predicted_good =
  if t.naive then select_naive t ~predicted_good
  else begin
    let i = Flow_heap.min t.heap in
    if i < 0 then None
    else begin
      let fi = t.flows.(i) in
      charge t i fi;
      t.pred <- predicted_good;
      t.skip <- i;
      let can_transmit_i = backlogged fi && predicted_good i in
      let k =
        finish_select t i ~can_transmit_i ~taker:t.find_taker
          ~other:t.find_other
      in
      t.pred <- no_pred;
      t.skip <- -1;
      if k < 0 then None else Some k
    end
  end

(* Keep the backlog index and heap in step with queue emptiness; a flow's
   virtual time is frozen while it is absent and re-indexed on return. *)
let index_backlogged t flow =
  Flow_set.add t.backlog flow;
  Flow_heap.set t.heap ~flow ~tag:t.flows.(flow).v

let deindex_if_empty t flow =
  if not (backlogged t.flows.(flow)) then begin
    Flow_set.remove t.backlog flow;
    Flow_heap.remove t.heap ~flow
  end

let enqueue t ~slot:_ (pkt : Packet.t) =
  let q = t.flows.(pkt.flow).packets in
  let was_empty = Packet.Ring.is_empty q in
  Packet.Ring.push q pkt;
  if was_empty then index_backlogged t pkt.flow

let arrive t ~slot ~flow ~seq ~count =
  let q = t.flows.(flow).packets in
  let was_empty = Packet.Ring.is_empty q in
  Packet.Ring.push_run q ~seq ~arrival:slot ~count;
  if was_empty then index_backlogged t flow

let pop t ~flow ~who =
  let q = t.flows.(flow).packets in
  if Packet.Ring.is_empty q then Wfs_util.Error.empty_queue who;
  Packet.Ring.pop_front q;
  deindex_if_empty t flow

let complete t ~flow = pop t ~flow ~who:"Cifq.complete"

(* A failed transmission: the real service did not happen after all, so the
   credit taken in [select] is returned. *)
let fail t ~flow = t.flows.(flow).lag <- t.flows.(flow).lag + 1

let drop_head t ~flow = pop t ~flow ~who:"Cifq.drop_head"
let queue_length t flow = Packet.Ring.length t.flows.(flow).packets

let instance t =
  {
    Wireless_sched.name = "CIF-Q";
    enqueue = (fun ~slot pkt -> enqueue t ~slot pkt);
    arrive = (fun ~slot ~flow ~seq ~count -> arrive t ~slot ~flow ~seq ~count);
    select = (fun ~slot ~predicted_good -> select t ~slot ~predicted_good);
    packets = (fun flow -> t.flows.(flow).packets);
    complete = (fun ~flow -> complete t ~flow);
    fail = (fun ~flow -> fail t ~flow);
    drop_head = (fun ~flow -> drop_head t ~flow);
    queue_length = queue_length t;
    on_slot_end = (fun ~slot:_ -> ());
    probe =
      {
        Wireless_sched.no_probe with
        finish_tag = Some (fun flow -> t.flows.(flow).v);
        lag_sum =
          Some
            (fun () ->
              Array.fold_left (fun acc fs -> acc + fs.lag) 0 t.flows);
        work_conserving = true;
      };
    handoff =
      (* §5 lag is the flow-attached compensation state; virtual times and
         the α-account are cell-local.  CIF-Q lags are integral packets, so
         importing truncates any fractional carry (visible to the caller
         through the returned accepted value). *)
      Some
        {
          Wireless_sched.export =
            (fun ~flow ->
              { Wireless_sched.lag = float_of_int t.flows.(flow).lag; credit = 0 });
          import =
            (fun ~flow carry ->
              let lag = int_of_float (Float.round carry.Wireless_sched.lag) in
              let fs = t.flows.(flow) in
              fs.lag <- fs.lag + lag;
              { Wireless_sched.lag = float_of_int lag; credit = 0 });
        };
    quiescent =
      (* With no backlog, CIF-Q's select is a pure no-op in both indexed
         and naive modes (empty heap / no backlogged flow -> None, nothing
         mutated) and there is no end-of-slot hook: idle slots carry zero
         state, so the whole window is absorbed by doing nothing. *)
      Some
        {
          Wireless_sched.backlog_empty =
            (fun () -> Flow_set.cardinal t.backlog = 0);
          advance_quiescent = (fun ~now:_ ~slots -> slots);
        };
  }

let lag t ~flow = t.flows.(flow).lag
let virtual_time t ~flow = t.flows.(flow).v
