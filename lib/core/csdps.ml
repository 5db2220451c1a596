module Packet = Wfs_traffic.Packet
module Flow_set = Wfs_util.Flow_set

(* [backlog] indexes the non-empty queues so [select] visits only candidate
   flows (cyclically from [current]) instead of walking every empty queue in
   the round-robin.  [naive = true] (differential testing) scans with the
   original one-flow-at-a-time loop instead; both paths perform identical
   state transitions by construction. *)
type t = {
  backoff : int;
  weights : int array;
  queues : Packet.Ring.t array;
  marked_until : int array;  (* flow skipped while now < marked_until *)
  backlog : Flow_set.t;
  naive : bool;
  mutable current : int;  (* round-robin position *)
  mutable remaining : int;  (* grants left for the current flow *)
  mutable now : int;  (* last slot seen by select *)
}

let int_weight w =
  let k = int_of_float (Float.round w) in
  if k < 1 then 1 else k

let create ?(backoff = 10) ?(naive = false) flows =
  if backoff <= 0 then Wfs_util.Error.invalid "Csdps.create" "backoff must be > 0";
  Array.iteri
    (fun i (f : Params.flow) ->
      if f.id <> i then Wfs_util.Error.invalid_flow_ids "Csdps.create")
    flows;
  let n = Array.length flows in
  {
    backoff;
    weights = Array.map (fun (f : Params.flow) -> int_weight f.weight) flows;
    queues = Array.init n (fun _ -> Packet.Ring.create ());
    marked_until = Array.make n 0;
    backlog = Flow_set.create ~n;
    naive;
    current = 0;
    remaining = (if n = 0 then 0 else 1);
    now = 0;
  }

let is_marked t ~flow ~now = now < t.marked_until.(flow)

let enqueue t ~slot:_ (pkt : Packet.t) =
  let q = t.queues.(pkt.flow) in
  let was_empty = Packet.Ring.is_empty q in
  Packet.Ring.push q pkt;
  if was_empty then Flow_set.add t.backlog pkt.flow

let arrive t ~slot ~flow ~seq ~count =
  let q = t.queues.(flow) in
  let was_empty = Packet.Ring.is_empty q in
  Packet.Ring.push_run q ~seq ~arrival:slot ~count;
  if was_empty then Flow_set.add t.backlog flow

let n_flows t = Array.length t.weights

let advance t =
  t.current <- (t.current + 1) mod n_flows t;
  t.remaining <- t.weights.(t.current)

(* Reference path: walk the round-robin one flow at a time, skipping empty
   queues and marked flows; at most one full cycle per slot.  [tried] runs
   to [n] inclusive, so on total failure [advance] fires n+1 times — net
   effect: [current] one past where it started, with a fresh grant. *)
let rec scan_naive t ~slot ~n tried =
  if tried > n then None
  else begin
    let f = t.current in
    if (not (Packet.Ring.is_empty t.queues.(f)))
       && not (is_marked t ~flow:f ~now:slot)
    then begin
      t.remaining <- t.remaining - 1;
      Some f
    end
    else begin
      advance t;
      scan_naive t ~slot ~n (tried + 1)
    end
  end

(* Indexed path: the first eligible flow in cyclic order from [current] is
   the first unmarked member of [backlog] starting at position
   [find_from backlog current] (eligibility cannot change mid-scan).  Only
   the last [advance] of the naive walk is observable, so the intermediate
   ones are skipped:

   - found at distance 0: only [remaining] decrements;
   - found farther on: [current] jumps there with a fresh grant, minus the
     slot just consumed;
   - nobody eligible: [current] ends one past its start with a fresh grant
     (n+1 naive advances ≡ 1 step mod n). *)
let[@hot] select_indexed t ~slot =
  let c = t.current in
  let m = Flow_set.cardinal t.backlog in
  let pos = Flow_set.find_from t.backlog c in
  let found = ref (-1) in
  let k = ref 0 in
  while !found < 0 && !k < m do
    let idx = pos + !k in
    let f = Flow_set.get t.backlog (if idx >= m then idx - m else idx) in
    if not (is_marked t ~flow:f ~now:slot) then found := f;
    incr k
  done;
  if !found < 0 then begin
    t.current <- (c + 1) mod n_flows t;
    t.remaining <- t.weights.(t.current);
    None
  end
  else begin
    let f = !found in
    if f = c then t.remaining <- t.remaining - 1
    else begin
      t.current <- f;
      t.remaining <- t.weights.(f) - 1
    end;
    Some f
  end

let select t ~slot ~predicted_good:_ =
  t.now <- slot;
  if t.remaining <= 0 then advance t;
  if t.naive then scan_naive t ~slot ~n:(n_flows t) 0
  else select_indexed t ~slot

(* Pop the head packet, keeping the backlog index in step. *)
let pop t ~flow ~who =
  let q = t.queues.(flow) in
  if Packet.Ring.is_empty q then Wfs_util.Error.empty_queue who;
  Packet.Ring.pop_front q;
  if Packet.Ring.is_empty q then Flow_set.remove t.backlog flow

let complete t ~flow = pop t ~flow ~who:"Csdps.complete"

(* The distinguishing CSDPS move: a failed transmission (missing ack) marks
   the link bad for [backoff] slots. *)
let fail t ~flow = t.marked_until.(flow) <- t.now + 1 + t.backoff

let drop_head t ~flow = pop t ~flow ~who:"Csdps.drop_head"
let queue_length t flow = Packet.Ring.length t.queues.(flow)

(* An empty-backlog slot still turns the round-robin: select stamps [now],
   fires the stale-grant advance if [remaining <= 0] (possible on the first
   idle slot only — every later slot leaves a fresh grant >= 1), then ends
   with [current] one step on and a fresh grant (the indexed miss directly;
   the naive walk via n+1 advances netting one step mod n).  [k] such slots
   therefore rotate [current] by [k] (+1 for the initial stale grant) and
   leave [remaining] at the landing flow's weight — one modular addition. *)
let[@hot] advance_quiescent t ~now ~slots =
  let n = n_flows t in
  if n = 0 || slots = 0 then 0
  else begin
    let extra = if t.remaining <= 0 then 1 else 0 in
    t.now <- now + slots - 1;
    t.current <- (t.current + extra + slots) mod n;
    t.remaining <- t.weights.(t.current);
    slots
  end

let instance t =
  {
    Wireless_sched.name = "CSDPS";
    enqueue = (fun ~slot pkt -> enqueue t ~slot pkt);
    arrive = (fun ~slot ~flow ~seq ~count -> arrive t ~slot ~flow ~seq ~count);
    select = (fun ~slot ~predicted_good -> select t ~slot ~predicted_good);
    packets = (fun flow -> t.queues.(flow));
    complete = (fun ~flow -> complete t ~flow);
    fail = (fun ~flow -> fail t ~flow);
    drop_head = (fun ~flow -> drop_head t ~flow);
    queue_length = queue_length t;
    on_slot_end = (fun ~slot:_ -> ());
    probe =
      {
        Wireless_sched.no_probe with
        (* Grant balance: remaining grants while the round-robin sits on
           the flow, alongside its per-round allowance and the slot until
           which backoff marking skips it.  Backoff can idle a slot on
           purpose, so CSDPS is not work-conserving. *)
        credit =
          (let credit flow =
             ( (if flow = t.current then t.remaining else 0),
               t.weights.(flow),
               t.marked_until.(flow) )
           in
           Some credit);
      };
    (* CSDPS grants are positional (whose turn in the round-robin), not a
       flow-attached account — nothing survives a cell change. *)
    handoff = None;
    quiescent =
      Some
        {
          Wireless_sched.backlog_empty =
            (fun () -> Flow_set.cardinal t.backlog = 0);
          advance_quiescent =
            (fun ~now ~slots -> advance_quiescent t ~now ~slots);
        };
  }
