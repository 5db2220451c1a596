(* Slot [k] of the queue (0 = head) keeps its start tag in cell [2j] and
   its finish tag in cell [2j+1] of [tags], where
   [j = (first + k) land (capacity - 1)]: an unboxed float ring with no
   per-slot record.  [chain] is a one-cell float array so that updating
   the tag the next slot chains from does not box a float. *)
type t = {
  weight : float;
  mutable tags : float array;
  mutable capacity : int;  (* slots: 0 until the first [add], then 2^k *)
  mutable first : int;
  mutable len : int;
  chain : float array;
}

let create ~weight =
  if weight <= 0. then Wfs_util.Error.invalid "Slot_queue.create" "weight must be > 0";
  { weight; tags = [||]; capacity = 0; first = 0; len = 0; chain = [| 0. |] }

let length t = t.len
let is_empty t = t.len = 0
let cell t k = 2 * ((t.first + k) land (t.capacity - 1))

(* Double the capacity and copy the live slots, in queue order, to the
   front of the new block. *)
let grow t =
  let capacity = if t.capacity = 0 then 1 else 2 * t.capacity in
  let tags = Array.make (2 * capacity) 0. in
  let before_wrap = Int.min t.len (t.capacity - t.first) in
  Array.blit t.tags (2 * t.first) tags 0 (2 * before_wrap);
  Array.blit t.tags 0 tags (2 * before_wrap) (2 * (t.len - before_wrap));
  t.tags <- tags;
  t.capacity <- capacity;
  t.first <- 0

let add t ~v =
  if t.len = t.capacity then grow t;
  let start = Float.max v t.chain.(0) in
  let finish = start +. (1. /. t.weight) in
  let c = cell t t.len in
  t.tags.(c) <- start;
  t.tags.(c + 1) <- finish;
  t.chain.(0) <- finish;
  t.len <- t.len + 1

let head_cell who t =
  if t.len = 0 then Wfs_util.Error.empty_queue who;
  2 * t.first

let head_start t = t.tags.(head_cell "Slot_queue.head_start" t)
let head_finish t = t.tags.(head_cell "Slot_queue.head_finish" t + 1)

let pop_front t =
  if t.len = 0 then Wfs_util.Error.empty_queue "Slot_queue.pop_front";
  t.first <- (t.first + 1) land (t.capacity - 1);
  t.len <- t.len - 1

let pop_back t =
  if t.len = 0 then Wfs_util.Error.empty_queue "Slot_queue.pop_back";
  t.len <- t.len - 1

(* Tags are non-decreasing, so the lagging slots form a prefix. *)
let lagging_count t ~v =
  let i = ref 0 in
  while !i < t.len && t.tags.(cell t !i + 1) < v do
    incr i
  done;
  !i

let move t ~src ~dst =
  let s = cell t src and d = cell t dst in
  t.tags.(d) <- t.tags.(s);
  t.tags.(d + 1) <- t.tags.(s + 1)

(* Delete slots [pos, pos + len) by shifting whichever side of the hole is
   shorter. *)
let remove_range t ~pos ~len =
  if pos <= t.len - pos - len then begin
    for k = pos - 1 downto 0 do
      move t ~src:k ~dst:(k + len)
    done;
    t.first <- (t.first + len) land (t.capacity - 1)
  end
  else
    for k = pos + len to t.len - 1 do
      move t ~src:k ~dst:(k - len)
    done;
  t.len <- t.len - len

let trim_lagging t ~v ~max_lagging =
  if max_lagging < 0 then Wfs_util.Error.invalid "Slot_queue.trim_lagging" "negative bound";
  let lagging = lagging_count t ~v in
  if lagging <= max_lagging then 0
  else begin
    (* Keep the first [max_lagging] lagging slots, drop the rest of the
       lagging prefix (Section 4.1 step 4a). *)
    let deleted = lagging - max_lagging in
    remove_range t ~pos:max_lagging ~len:deleted;
    deleted
  end

let clamp_lead t ~v ~max_lead ~weight =
  if t.len = 0 then false
  else begin
    let c = 2 * t.first in
    let limit = v +. (max_lead /. weight) in
    if t.tags.(c) > limit then begin
      t.tags.(c) <- limit;
      t.tags.(c + 1) <- limit +. (1. /. weight);
      (* If this is also the most recent slot, future tags chain from the
         clamped finish. *)
      if t.len = 1 then t.chain.(0) <- t.tags.(c + 1);
      true
    end
    else false
  end

let to_list t =
  List.init t.len (fun k ->
      let c = cell t k in
      (t.tags.(c), t.tags.(c + 1)))
