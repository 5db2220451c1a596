(* Sorted index of flow ids over a fixed universe [0..n-1].

   The backlogged-flow index behind sub-linear scheduler selection: a
   membership bitmap plus a sorted compact array of the members, so
   "iterate the backlogged flows in ascending id order" costs O(active)
   instead of O(n_flows), while keeping exactly the ascending-id iteration
   order the naive full scans had (byte-identical tie-breaking).

   [add]/[remove] shift the compact array — O(active) worst case, which is
   the regime this index is for (few active flows among many); when every
   flow is active the naive scan was O(n) anyway. *)

type t = { bitmap : bool array; elts : int array; mutable count : int }

let create ~n =
  if n < 0 then Error.invalid "Flow_set.create" "negative flow count";
  { bitmap = Array.make (Int.max n 1) false; elts = Array.make (Int.max n 1) 0; count = 0 }

let cardinal t = t.count
let is_empty t = t.count = 0

let check t name flow =
  if flow < 0 || flow >= Array.length t.bitmap then
    Error.invalidf name "flow %d out of range [0,%d)" flow (Array.length t.bitmap)

let mem t flow =
  check t "Flow_set.mem" flow;
  t.bitmap.(flow)

(* Position of the first member >= [flow] (= [count] when none). *)
let lower_bound t flow =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.elts.(mid) < flow then lo := mid + 1 else hi := mid
  done;
  !lo

let add t flow =
  check t "Flow_set.add" flow;
  if not t.bitmap.(flow) then begin
    t.bitmap.(flow) <- true;
    let pos = lower_bound t flow in
    Array.blit t.elts pos t.elts (pos + 1) (t.count - pos);
    t.elts.(pos) <- flow;
    t.count <- t.count + 1
  end

let remove t flow =
  check t "Flow_set.remove" flow;
  if t.bitmap.(flow) then begin
    t.bitmap.(flow) <- false;
    let pos = lower_bound t flow in
    Array.blit t.elts (pos + 1) t.elts pos (t.count - pos - 1);
    t.count <- t.count - 1
  end

let get t i =
  if i < 0 || i >= t.count then
    Error.invalidf "Flow_set.get" "index %d out of bounds (cardinal %d)" i
      t.count;
  t.elts.(i)

let find_from t flow =
  check t "Flow_set.find_from" flow;
  lower_bound t flow

let iter f t =
  for i = 0 to t.count - 1 do
    f t.elts.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.count - 1 do
    acc := f !acc t.elts.(i)
  done;
  !acc
