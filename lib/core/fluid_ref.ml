type t = {
  capacity : float;
  weights : float array;
  queue : float array;  (* fluid backlog, packets *)
  service : float array;
  (* The backlogged set: exactly the flows with [queue > eps], ascending
     id, in the first [n_active] cells. *)
  active : int array;
  mutable n_active : int;
  mutable v : float;
  mutable slot : int;
}

let eps = 1e-12

let create ?(capacity = 1.0) ~weights () =
  if capacity <= 0. then Wfs_util.Error.invalid "Fluid_ref.create" "capacity must be > 0";
  Array.iter
    (fun w -> if w <= 0. then Wfs_util.Error.invalid "Fluid_ref.create" "weights must be > 0")
    weights;
  let n = Array.length weights in
  {
    capacity;
    weights = Array.copy weights;
    queue = Array.make n 0.;
    service = Array.make n 0.;
    active = Array.make n 0;
    n_active = 0;
    v = 0.;
    slot = 0;
  }

(* Insert a flow that is not in the backlogged set, keeping ascending id. *)
let insert t flow =
  let lo = ref 0 and hi = ref t.n_active in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.active.(mid) < flow then lo := mid + 1 else hi := mid
  done;
  Array.blit t.active !lo t.active (!lo + 1) (t.n_active - !lo);
  t.active.(!lo) <- flow;
  t.n_active <- t.n_active + 1

(* One [+. 1.] per packet: a fractional backlog plus [float_of_int count]
   can round differently from [count] single arrivals. *)
let add_arrivals t ~flow ~count =
  if count < 0 then Wfs_util.Error.invalid "Fluid_ref.add_arrivals" "negative count";
  let q0 = t.queue.(flow) in
  let q = ref q0 in
  for _ = 1 to count do
    q := !q +. 1.
  done;
  t.queue.(flow) <- !q;
  if q0 <= eps && !q > eps then insert t flow

let virtual_time t = t.v

(* Water-filling: serve the backlogged set at proportional rates until
   either the slot's capacity is exhausted or some flow empties; in the
   latter case redistribute among the survivors.  Advancing the virtual
   time by dv grants each backlogged flow exactly r_i * dv packets.  Each
   pass visits only the backlogged set, in ascending id (float sums round
   differently in another order, so the order is part of the output), and
   keeps the flows it left above [eps] for the next pass. *)
let[@hot] step t =
  let capacity_left = ref t.capacity in
  while t.n_active > 0 && !capacity_left > eps do
    let n = t.n_active in
    let sum_active = ref 0. in
    let dv_drain = ref infinity in
    for k = 0 to n - 1 do
      let i = t.active.(k) in
      sum_active := !sum_active +. t.weights.(i);
      let d = t.queue.(i) /. t.weights.(i) in
      if d < !dv_drain then dv_drain := d
    done;
    (* Largest dv possible before capacity runs out, or before the flow
       with the smallest normalised backlog drains. *)
    let dv = Float.min (!capacity_left /. !sum_active) !dv_drain in
    let kept = ref 0 in
    for k = 0 to n - 1 do
      let i = t.active.(k) in
      let served = t.weights.(i) *. dv in
      t.queue.(i) <- Float.max 0. (t.queue.(i) -. served);
      t.service.(i) <- t.service.(i) +. served;
      if t.queue.(i) > eps then begin
        t.active.(!kept) <- i;
        incr kept
      end
    done;
    t.n_active <- !kept;
    capacity_left := !capacity_left -. (dv *. !sum_active);
    t.v <- t.v +. dv
  done;
  t.slot <- t.slot + 1

let is_busy t = t.n_active > 0

let skip_idle t ~slots =
  if slots < 0 then Wfs_util.Error.invalid "Fluid_ref.skip_idle" "negative slots";
  t.slot <- t.slot + slots

let slot t = t.slot
let queue t ~flow = t.queue.(flow)
let service t ~flow = t.service.(flow)
