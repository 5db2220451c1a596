(* The slotted fluid reference with every water-filling pass scanning all
   flows and skipping the idle ones: the oracle that test_iwfq's bit-exact
   property holds {!Wfs_core.Fluid_ref} and its backlogged set to, so a
   change of summation order or of set membership shows as a differing
   bit. *)

type t = {
  capacity : float;
  weights : float array;
  queue : float array;
  service : float array;
  mutable v : float;
  mutable slot : int;
}

let eps = 1e-12

let create ?(capacity = 1.0) ~weights () =
  let n = Array.length weights in
  {
    capacity;
    weights = Array.copy weights;
    queue = Array.make n 0.;
    service = Array.make n 0.;
    v = 0.;
    slot = 0;
  }

let add_arrivals t ~flow ~count =
  let q = ref t.queue.(flow) in
  for _ = 1 to count do
    q := !q +. 1.
  done;
  t.queue.(flow) <- !q

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
      let dv_capacity = !capacity_left /. !sum_active in
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

let is_busy t = Array.exists (fun q -> q > eps) t.queue
let skip_idle t ~slots = t.slot <- t.slot + slots
