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

  (* Entry [k] of the ring (0 = head) occupies cells [3j], [3j+1] and
     [3j+2] of [cells] — first seq, arrival, tail — where
     [j = (first + k) land (capacity - 1)].  A tail [a >= 0] is one packet
     with [a] attempts; a tail [-r] is a run of [r + 1] packets with seqs
     [seq .. seq + r], all with that arrival and no attempts. *)
  type t = {
    mutable cells : int array;
    mutable capacity : int;  (* entries: 0, then a power of two *)
    mutable first : int;
    mutable entries : int;
    mutable len : int;  (* packets *)
  }

  let stride = 3

  let create () =
    { cells = [||]; capacity = 0; first = 0; entries = 0; len = 0 }

  let length t = t.len
  let is_empty t = t.len = 0
  let capacity t = t.capacity

  (* Double the capacity and copy the live entries, in queue order, to the
     front of the new block.  Starting from one entry keeps short queues
     small: a topology rebuilds every cell's rings at each handoff. *)
  let grow t =
    let capacity = if t.capacity = 0 then 1 else 2 * t.capacity in
    let cells = Array.make (stride * capacity) 0 in
    let before_wrap = Int.min t.entries (t.capacity - t.first) in
    Array.blit t.cells (stride * t.first) cells 0 (stride * before_wrap);
    Array.blit t.cells 0 cells (stride * before_wrap)
      (stride * (t.entries - before_wrap));
    t.cells <- cells;
    t.capacity <- capacity;
    t.first <- 0

  let cell t k = stride * ((t.first + k) land (t.capacity - 1))

  let append t ~seq ~arrival ~tail =
    if t.entries = t.capacity then grow t;
    let c = cell t t.entries in
    t.cells.(c) <- seq;
    t.cells.(c + 1) <- arrival;
    t.cells.(c + 2) <- tail;
    t.entries <- t.entries + 1

  (* The tail entry takes the run when it is not a single packet with
     attempts, shares the arrival slot and the seqs follow on. *)
  let push_run t ~seq ~arrival ~count =
    if count < 1 then Wfs_util.Error.invalid "Packet.Ring.push_run" "count < 1";
    let c = if t.entries = 0 then -1 else cell t (t.entries - 1) in
    let tail = if c < 0 then 1 else t.cells.(c + 2) in
    if tail <= 0 && t.cells.(c + 1) = arrival && t.cells.(c) - tail + 1 = seq
    then t.cells.(c + 2) <- tail - count
    else append t ~seq ~arrival ~tail:(1 - count);
    t.len <- t.len + count

  let push t (p : packet) =
    if p.attempts = 0 then push_run t ~seq:p.seq ~arrival:p.arrival ~count:1
    else begin
      append t ~seq:p.seq ~arrival:p.arrival ~tail:p.attempts;
      t.len <- t.len + 1
    end

  let pop_front t =
    if t.len = 0 then Wfs_util.Error.empty_queue "Packet.Ring.pop_front";
    let c = stride * t.first in
    let tail = t.cells.(c + 2) in
    if tail >= 0 then begin
      t.first <- (t.first + 1) land (t.capacity - 1);
      t.entries <- t.entries - 1
    end
    else begin
      t.cells.(c) <- t.cells.(c) + 1;
      t.cells.(c + 2) <- tail + 1
    end;
    t.len <- t.len - 1

  let pop_back t =
    if t.len = 0 then Wfs_util.Error.empty_queue "Packet.Ring.pop_back";
    let c = cell t (t.entries - 1) in
    let tail = t.cells.(c + 2) in
    if tail >= 0 then t.entries <- t.entries - 1
    else t.cells.(c + 2) <- tail + 1;
    t.len <- t.len - 1

  let head_cell t =
    if t.len = 0 then Wfs_util.Error.empty_queue "Packet.Ring.head";
    stride * t.first

  let head_seq t = t.cells.(head_cell t)
  let head_arrival t = t.cells.(head_cell t + 1)
  let head_attempts t = Int.max 0 t.cells.(head_cell t + 2)

  (* A head inside a run is split off as its own entry in front of the
     rest of the run before it takes the attempt. *)
  let bump_attempts t =
    let c = head_cell t in
    let tail = t.cells.(c + 2) in
    if tail >= 0 then t.cells.(c + 2) <- tail + 1
    else begin
      if t.entries = t.capacity then grow t;
      let c = stride * t.first in
      let seq = t.cells.(c) and arrival = t.cells.(c + 1) in
      t.cells.(c) <- seq + 1;
      t.cells.(c + 2) <- tail + 1;
      t.first <- (t.first - 1) land (t.capacity - 1);
      t.entries <- t.entries + 1;
      let c = stride * t.first in
      t.cells.(c) <- seq;
      t.cells.(c + 1) <- arrival;
      t.cells.(c + 2) <- 1
    end

  let head t ~flow =
    {
      flow;
      seq = head_seq t;
      arrival = head_arrival t;
      size = 1;
      attempts = head_attempts t;
    }
end
