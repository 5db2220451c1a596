type t = {
  capacity : float;
  weights : float array;
  queue : float array;  (* fluid backlog, packets *)
  service : float array;
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
    v = 0.;
    slot = 0;
  }

let n_flows t = Array.length t.weights

(* One [+. 1.] per packet: a fractional backlog plus [float_of_int count]
   can round differently from [count] single arrivals. *)
let add_arrivals t ~flow ~count =
  if count < 0 then Wfs_util.Error.invalid "Fluid_ref.add_arrivals" "negative count";
  let q = ref t.queue.(flow) in
  for _ = 1 to count do
    q := !q +. 1.
  done;
  t.queue.(flow) <- !q

let virtual_time t = t.v

(* Water-filling: serve the backlogged set at proportional rates until
   either the slot's capacity is exhausted or some flow empties; in the
   latter case redistribute among the survivors.  Advancing the virtual
   time by dv grants each backlogged flow exactly r_i * dv packets. *)
let step t =
  let n = Array.length t.weights in
  let capacity_left = ref t.capacity in
  let continue = ref true in
  while !continue && !capacity_left > eps do
    let sum_active = ref 0. in
    for i = 0 to n - 1 do
      if t.queue.(i) > eps then sum_active := !sum_active +. t.weights.(i)
    done;
    if !sum_active <= 0. then continue := false
    else begin
      (* Largest dv possible before capacity runs out ... *)
      let dv_capacity = !capacity_left /. !sum_active in
      (* ... or before the flow with the smallest normalised backlog drains. *)
      let dv_drain = ref infinity in
      for i = 0 to n - 1 do
        if t.queue.(i) > eps then begin
          let d = t.queue.(i) /. t.weights.(i) in
          if d < !dv_drain then dv_drain := d
        end
      done;
      let dv = Float.min dv_capacity !dv_drain in
      for i = 0 to n - 1 do
        if t.queue.(i) > eps then begin
          let served = t.weights.(i) *. dv in
          t.queue.(i) <- Float.max 0. (t.queue.(i) -. served);
          t.service.(i) <- t.service.(i) +. served
        end
      done;
      capacity_left := !capacity_left -. (dv *. !sum_active);
      t.v <- t.v +. dv
    end
  done;
  t.slot <- t.slot + 1

let is_busy t =
  let n = Array.length t.weights in
  let busy = ref false in
  let i = ref 0 in
  while (not !busy) && !i < n do
    if t.queue.(!i) > eps then busy := true;
    incr i
  done;
  !busy

let skip_idle t ~slots =
  if slots < 0 then Wfs_util.Error.invalid "Fluid_ref.skip_idle" "negative slots";
  t.slot <- t.slot + slots

let slot t = t.slot
let queue t ~flow = t.queue.(flow)
let service t ~flow = t.service.(flow)
let is_backlogged t ~flow = t.queue.(flow) > eps

let backlogged_weight t =
  let sum = ref 0. in
  for i = 0 to Array.length t.weights - 1 do
    if t.queue.(i) > eps then sum := !sum +. t.weights.(i)
  done;
  !sum
