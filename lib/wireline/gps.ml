(* Event-driven fluid GPS.

   Invariants between calls:
   - [v] is the virtual time at real time [t_last];
   - a flow is active iff it has fluid work left, iff [max_finish.(i) > v];
   - every packet not yet fluid-departed has an entry in [pending] keyed by
     its finish tag, so the earliest pending finish tag is the next event at
     which either a packet departs or the active set shrinks.

   Advancing by [dv] of virtual time grants each active flow exactly
   [r_i * dv] bits of service (dv = C dt / sum_r and rate_i = C r_i / sum_r),
   which makes service accounting exact with no integration error. *)

type departure = { flow : int; seq : int; finish_tag : float; time : float }

type t = {
  capacity : float;
  weights : float array;
  mutable v : float;
  mutable t_last : float;
  mutable sum_active : float;
  active : bool array;
  last_finish : float array;  (* finish tag of the flow's latest packet *)
  service : float array;
  backlog : float array;  (* fluid bits remaining *)
  pending : (float * int * int) Wfs_util.Heap.t;  (* finish, flow, seq *)
  next_seq : int array;
  mutable departed : departure list;  (* reversed *)
}

let eps = 1e-9

let create ~capacity flows =
  if capacity <= 0. then Wfs_util.Error.invalid "Gps.create" "capacity must be > 0";
  let n = Array.length flows in
  Array.iteri
    (fun i (f : Flow.t) ->
      if f.id <> i then Wfs_util.Error.invalid_flow_ids "Gps.create")
    flows;
  {
    capacity;
    weights = Array.map (fun (f : Flow.t) -> f.weight) flows;
    v = 0.;
    t_last = 0.;
    sum_active = 0.;
    active = Array.make n false;
    last_finish = Array.make n 0.;
    service = Array.make n 0.;
    backlog = Array.make n 0.;
    pending = Wfs_util.Heap.create ~leq:(fun (fa, _, _) (fb, _, _) -> fa <= fb) ();
    next_seq = Array.make n 0;
    departed = [];
  }

(* Grant [dv] virtual time of service to every active flow. *)
let credit t dv =
  if dv > 0. then
    for i = 0 to Array.length t.weights - 1 do
      if t.active.(i) then begin
        let bits = t.weights.(i) *. dv in
        t.service.(i) <- t.service.(i) +. bits;
        t.backlog.(i) <- Float.max 0. (t.backlog.(i) -. bits)
      end
    done

(* Pop every pending packet whose finish tag is reached, record its real
   departure time, and deactivate flows whose last packet departed. *)
let settle_crossings t =
  let rec loop () =
    match Wfs_util.Heap.peek t.pending with
    | Some (f, flow, seq) when f <= t.v +. eps ->
        ignore (Wfs_util.Heap.pop t.pending);
        t.departed <- { flow; seq; finish_tag = f; time = t.t_last } :: t.departed;
        if t.last_finish.(flow) <= t.v +. eps && t.active.(flow) then begin
          t.active.(flow) <- false;
          t.sum_active <- t.sum_active -. t.weights.(flow);
          t.backlog.(flow) <- 0.;
          if t.sum_active < eps then t.sum_active <- 0.
        end;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let advance_to t time =
  if time < t.t_last -. eps then
    Wfs_util.Error.invalidf "Gps.advance_to" "time %g precedes %g" time
      t.t_last;
  let rec step () =
    if t.t_last < time -. eps then
      if t.sum_active <= 0. then t.t_last <- time
      else begin
        match Wfs_util.Heap.peek t.pending with
        | None ->
            (* No pending work despite sum_active > 0: inconsistent. *)
            assert false
        | Some (f_next, _, _) ->
            let dv_event = f_next -. t.v in
            let dt_event = dv_event *. t.sum_active /. t.capacity in
            if t.t_last +. dt_event <= time +. eps then begin
              credit t dv_event;
              t.v <- f_next;
              t.t_last <- t.t_last +. dt_event;
              settle_crossings t;
              step ()
            end
            else begin
              let dv = (time -. t.t_last) *. t.capacity /. t.sum_active in
              credit t dv;
              t.v <- t.v +. dv;
              t.t_last <- time
            end
      end
  in
  step ();
  if time > t.t_last then t.t_last <- time

let arrive t ~time ~flow ~size =
  if size <= 0. then Wfs_util.Error.invalid "Gps.arrive" "size must be > 0";
  if flow < 0 || flow >= Array.length t.weights then
    Wfs_util.Error.unknown_flow "Gps.arrive";
  advance_to t time;
  let start_tag = Float.max t.v t.last_finish.(flow) in
  let finish_tag = start_tag +. (size /. t.weights.(flow)) in
  t.last_finish.(flow) <- finish_tag;
  let seq = t.next_seq.(flow) in
  t.next_seq.(flow) <- seq + 1;
  Wfs_util.Heap.push t.pending (finish_tag, flow, seq);
  t.backlog.(flow) <- t.backlog.(flow) +. size;
  if not t.active.(flow) then begin
    t.active.(flow) <- true;
    t.sum_active <- t.sum_active +. t.weights.(flow)
  end;
  (start_tag, finish_tag)

let virtual_time t ~time =
  advance_to t time;
  t.v

let service t ~flow = t.service.(flow)
let backlog t ~flow = t.backlog.(flow)
let is_backlogged t ~flow = t.active.(flow)
let backlogged_weight t = t.sum_active
let departures t = List.rev t.departed
