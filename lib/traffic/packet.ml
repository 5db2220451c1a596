type t = {
  flow : int;
  seq : int;
  arrival : int;
  size : int;
  mutable attempts : int;
}

let make ~flow ~seq ~arrival ?(size = 1) () =
  assert (size > 0);
  { flow; seq; arrival; size; attempts = 0 }

let delay t ~departed = departed - t.arrival
let age t ~now = now - t.arrival

let pp ppf t =
  Format.fprintf ppf "f%d#%d@%d(size=%d,att=%d)" t.flow t.seq t.arrival t.size
    t.attempts

module Ring = struct
  type packet = t

  (* Packet [k] of the queue (0 = head) occupies cells [3j], [3j+1] and
     [3j+2] of [cells] — seq, arrival, attempts — where
     [j = (first + k) land (capacity - 1)]. *)
  type t = {
    mutable cells : int array;
    mutable capacity : int;  (* packets: 0, then a power of two *)
    mutable first : int;
    mutable len : int;
  }

  let stride = 3
  let create () = { cells = [||]; capacity = 0; first = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0
  let capacity t = t.capacity

  (* Double the capacity and copy the live packets, in queue order, to the
     front of the new block.  Starting from one packet keeps short queues
     small: a topology rebuilds every cell's rings at each handoff. *)
  let grow t =
    let capacity = if t.capacity = 0 then 1 else 2 * t.capacity in
    let cells = Array.make (stride * capacity) 0 in
    let before_wrap = Int.min t.len (t.capacity - t.first) in
    Array.blit t.cells (stride * t.first) cells 0 (stride * before_wrap);
    Array.blit t.cells 0 cells (stride * before_wrap)
      (stride * (t.len - before_wrap));
    t.cells <- cells;
    t.capacity <- capacity;
    t.first <- 0

  let cell t k = stride * ((t.first + k) land (t.capacity - 1))

  let push t (p : packet) =
    if t.len = t.capacity then grow t;
    let c = cell t t.len in
    t.cells.(c) <- p.seq;
    t.cells.(c + 1) <- p.arrival;
    t.cells.(c + 2) <- p.attempts;
    t.len <- t.len + 1

  let pop_front t =
    if t.len = 0 then Wfs_util.Error.empty_queue "Packet.Ring.pop_front";
    t.first <- (t.first + 1) land (t.capacity - 1);
    t.len <- t.len - 1

  let pop_back t =
    if t.len = 0 then Wfs_util.Error.empty_queue "Packet.Ring.pop_back";
    t.len <- t.len - 1

  let head_cell t =
    if t.len = 0 then Wfs_util.Error.empty_queue "Packet.Ring.head";
    stride * t.first

  let head_seq t = t.cells.(head_cell t)
  let head_arrival t = t.cells.(head_cell t + 1)
  let head_attempts t = t.cells.(head_cell t + 2)

  let bump_attempts t =
    let c = head_cell t + 2 in
    t.cells.(c) <- t.cells.(c) + 1

  let head t ~flow =
    {
      flow;
      seq = head_seq t;
      arrival = head_arrival t;
      size = 1;
      attempts = head_attempts t;
    }
end
