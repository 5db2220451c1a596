(* Entry [k] of the queue (0 = head) occupies cells [2j] and [2j+1] of
   [tags] — the start tag of its first slot and its slot count — where
   [j = (first + k) land (capacity - 1)].  Every slot of an entry starts
   where the one before it finished, so slot [m] of an entry starts at the
   entry's start with [step] added [m] times by [+.], the same additions
   [add] performed when it chained those slots; no tag is computed in
   closed form.  [chain] is a one-cell float array so that updating the
   tag the next slot chains from does not box a float. *)
type t = {
  step : float;  (* 1/r_i: a slot's finish is its start +. step *)
  lead : float;  (* l_i/r_i: the lead bound in virtual time *)
  mutable tags : float array;
  mutable capacity : int;  (* entries: 0 until the first [add], then 2^k *)
  mutable first : int;
  mutable entries : int;
  mutable len : int;  (* slots *)
  mutable open_tail : bool;
      (* the tail slot is the last one [add] chained (or a clamp re-chained),
         so [chain] is its finish and the next chained slot may join its
         entry *)
  chain : float array;
}

let create ~weight ~max_lead =
  if weight <= 0. then Wfs_util.Error.invalid "Slot_queue.create" "weight must be > 0";
  {
    step = 1. /. weight;
    lead = max_lead /. weight;
    tags = [||];
    capacity = 0;
    first = 0;
    entries = 0;
    len = 0;
    open_tail = false;
    chain = [| 0. |];
  }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = t.capacity
let cell t k = 2 * ((t.first + k) land (t.capacity - 1))
let count t c = int_of_float t.tags.(c + 1)
let set_count t c n = t.tags.(c + 1) <- float_of_int n

(* Double the capacity and copy the live entries, in queue order, to the
   front of the new block. *)
let grow t =
  let capacity = if t.capacity = 0 then 1 else 2 * t.capacity in
  let tags = Array.make (2 * capacity) 0. in
  let before_wrap = Int.min t.entries (t.capacity - t.first) in
  Array.blit t.tags (2 * t.first) tags 0 (2 * before_wrap);
  Array.blit t.tags 0 tags (2 * before_wrap) (2 * (t.entries - before_wrap));
  t.tags <- tags;
  t.capacity <- capacity;
  t.first <- 0

(* [count] slots arriving together at [v]: the first starts at
   [max v chain], each later one at the finish before it, so all of them
   share the first one's entry; the chain walks the [count] finishes by
   the same additions [count] calls of [add] would make. *)
let add_run t ~v ~count:n =
  if n < 1 then Wfs_util.Error.invalid "Slot_queue.add_run" "count < 1";
  let start = Float.max v t.chain.(0) in
  (* With [open_tail], [v <= chain] means the new slot starts at the tail
     slot's finish, so it joins the tail entry. *)
  if t.len > 0 && t.open_tail && v <= t.chain.(0) then begin
    let c = cell t (t.entries - 1) in
    set_count t c (count t c + n)
  end
  else begin
    if t.entries = t.capacity then grow t;
    let c = cell t t.entries in
    t.tags.(c) <- start;
    set_count t c n;
    t.entries <- t.entries + 1
  end;
  let chain = ref start in
  for _ = 1 to n do
    chain := !chain +. t.step
  done;
  t.chain.(0) <- !chain;
  t.open_tail <- true;
  t.len <- t.len + n

let add t ~v = add_run t ~v ~count:1

let head_cell who t =
  if t.len = 0 then Wfs_util.Error.empty_queue who;
  2 * t.first

let head_start t = t.tags.(head_cell "Slot_queue.head_start" t)
let head_finish t = t.tags.(head_cell "Slot_queue.head_finish" t) +. t.step

(* Drop the first [m] slots of the entry at cell [c] (fewer than it
   holds), walking its start over them. *)
let advance t c m =
  let start = ref t.tags.(c) in
  for _ = 1 to m do
    start := !start +. t.step
  done;
  t.tags.(c) <- !start;
  set_count t c (count t c - m)

let pop_front t =
  if t.len = 0 then Wfs_util.Error.empty_queue "Slot_queue.pop_front";
  let c = 2 * t.first in
  if count t c = 1 then begin
    t.first <- (t.first + 1) land (t.capacity - 1);
    t.entries <- t.entries - 1
  end
  else advance t c 1;
  t.len <- t.len - 1

let pop_back t =
  if t.len = 0 then Wfs_util.Error.empty_queue "Slot_queue.pop_back";
  let c = cell t (t.entries - 1) in
  let n = count t c in
  if n = 1 then t.entries <- t.entries - 1 else set_count t c (n - 1);
  (* [chain] stays the popped slot's finish, so the next [add] opens an
     entry of its own. *)
  t.open_tail <- false;
  t.len <- t.len - 1

(* Tags are non-decreasing, so the lagging slots form a prefix. *)
let lagging_count t ~v =
  let lagging = ref 0 and k = ref 0 and within = ref true in
  while !within && !k < t.entries do
    let c = cell t !k in
    let n = count t c in
    let finish = ref (t.tags.(c) +. t.step) and m = ref 0 in
    while !m < n && !finish < v do
      finish := !finish +. t.step;
      incr m
    done;
    lagging := !lagging + !m;
    within := !m = n;
    incr k
  done;
  !lagging

let move t ~src ~dst =
  let s = cell t src and d = cell t dst in
  t.tags.(d) <- t.tags.(s);
  t.tags.(d + 1) <- t.tags.(s + 1)

(* Delete entries [pos, pos + len) by shifting whichever side of the hole
   is shorter. *)
let remove_entries t ~pos ~len =
  if pos <= t.entries - pos - len then begin
    for k = pos - 1 downto 0 do
      move t ~src:k ~dst:(k + len)
    done;
    t.first <- (t.first + len) land (t.capacity - 1)
  end
  else
    for k = pos + len to t.entries - 1 do
      move t ~src:k ~dst:(k - len)
    done;
  t.entries <- t.entries - len

(* Open a hole at entry [at] by shifting whichever side is shorter,
   growing a full ring first; the caller fills the hole. *)
let insert_entry t ~at =
  if t.entries = t.capacity then grow t;
  if at < t.entries - at then begin
    t.first <- (t.first - 1) land (t.capacity - 1);
    for k = 0 to at - 1 do
      move t ~src:(k + 1) ~dst:k
    done
  end
  else
    for k = t.entries - 1 downto at do
      move t ~src:k ~dst:(k + 1)
    done;
  t.entries <- t.entries + 1

(* Delete slots [pos, pos + n), n >= 1.  The entry holding [pos] keeps
   its slots before [pos]; the entry holding [pos + n] keeps its slots
   from there on, its start walked forward to that slot; the entries in
   between go. *)
let delete_slots t ~pos ~n =
  (* [k] walks the entries, [before] counts the slots ahead of entry [k]. *)
  let k = ref 0 and before = ref 0 in
  while !before + count t (cell t !k) <= pos do
    before := !before + count t (cell t !k);
    incr k
  done;
  let ea = !k and oa = pos - !before in
  let stop = pos + n in
  if stop = t.len then begin
    (* The hole reaches the tail. *)
    if oa > 0 then begin
      set_count t (cell t ea) oa;
      t.entries <- ea + 1
    end
    else t.entries <- ea;
    t.open_tail <- false
  end
  else begin
    while !before + count t (cell t !k) <= stop do
      before := !before + count t (cell t !k);
      incr k
    done;
    let eb = !k and ob = stop - !before in
    if ea < eb then begin
      advance t (cell t eb) ob;
      if oa > 0 then begin
        set_count t (cell t ea) oa;
        remove_entries t ~pos:(ea + 1) ~len:(eb - ea - 1)
      end
      else remove_entries t ~pos:ea ~len:(eb - ea)
    end
    else if oa = 0 then advance t (cell t ea) ob
    else begin
      (* The hole lies inside one entry: split it in two. *)
      insert_entry t ~at:ea;
      move t ~src:(ea + 1) ~dst:ea;
      set_count t (cell t ea) oa;
      advance t (cell t (ea + 1)) ob
    end
  end;
  t.len <- t.len - n

let trim_lagging t ~v ~max_lagging =
  if max_lagging < 0 then Wfs_util.Error.invalid "Slot_queue.trim_lagging" "negative bound";
  let lagging = lagging_count t ~v in
  if lagging <= max_lagging then 0
  else begin
    (* Keep the first [max_lagging] lagging slots, drop the rest of the
       lagging prefix (Section 4.1 step 4a). *)
    let deleted = lagging - max_lagging in
    delete_slots t ~pos:max_lagging ~n:deleted;
    deleted
  end

let clamp_lead t ~v =
  if t.len = 0 then false
  else begin
    let c = 2 * t.first in
    let limit = v +. t.lead in
    if t.tags.(c) > limit then begin
      if count t c > 1 then begin
        (* Split the head slot off its entry: the rest starts where the
           head finished before the clamp. *)
        advance t c 1;
        insert_entry t ~at:0;
        set_count t (2 * t.first) 1
      end
      else if t.len = 1 then begin
        (* The only slot is also the most recent: future tags chain from
           the clamped finish. *)
        t.chain.(0) <- limit +. t.step;
        t.open_tail <- true
      end;
      t.tags.(2 * t.first) <- limit;
      true
    end
    else false
  end

let to_list t =
  let slots = ref [] in
  for k = 0 to t.entries - 1 do
    let c = cell t k in
    let start = ref t.tags.(c) in
    for _ = 1 to count t c do
      let finish = !start +. t.step in
      slots := (!start, finish) :: !slots;
      start := finish
    done
  done;
  List.rev !slots
