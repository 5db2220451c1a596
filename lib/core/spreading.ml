(* The member with a slot left whose next slot has the smallest finish tag,
   scanning in ascending-id order with a strict "smaller finish wins"
   update; [restrict] keeps only slots whose start tag is eligible at
   frame fraction [pos / total].  Non-members and members with weight
   <= 0 never have a slot left, exactly as in a dense scan over the full
   flow array. *)
let[@hot] best_member ~weights ~members ~sent ~pos ~total ~restrict =
  let v = float_of_int pos /. float_of_int total in
  let eps = Params.eps_tag in
  let best = ref (-1) in
  let best_finish = ref 0. in
  for k = 0 to members - 1 do
    if sent.(k) < weights.(k) then begin
      let w = float_of_int weights.(k) in
      let start = float_of_int sent.(k) /. w in
      let finish = float_of_int (sent.(k) + 1) /. w in
      if
        ((not restrict) || start <= v +. eps)
        && (!best < 0 || finish < !best_finish)
      then begin
        best := k;
        best_finish := finish
      end
    end
  done;
  !best

let[@hot] spread ~(ids : int array) ~weights ~members ~sent ~out =
  let who = "Spreading.spread" in
  if
    members > Array.length ids
    || members > Array.length weights
    || members > Array.length sent
  then Wfs_util.Error.invalid who "member buffers shorter than [members]";
  let total = ref 0 in
  for k = 0 to members - 1 do
    if k > 0 && ids.(k) <= ids.(k - 1) then
      Wfs_util.Error.invalid who "flow ids must be strictly ascending";
    if weights.(k) > 0 then total := !total + weights.(k);
    sent.(k) <- 0
  done;
  let total = !total in
  if Array.length out < total then
    Wfs_util.Error.invalid who "[out] shorter than the frame";
  for pos = 0 to total - 1 do
    (* Smallest finish tag among eligible slots; fall back to smallest
       finish overall (always non-empty: some member has slots left). *)
    let k =
      match best_member ~weights ~members ~sent ~pos ~total ~restrict:true with
      | -1 -> best_member ~weights ~members ~sent ~pos ~total ~restrict:false
      | k -> k
    in
    if k < 0 then assert false;
    out.(pos) <- ids.(k);
    sent.(k) <- sent.(k) + 1
  done;
  total

let frame ~weights =
  let n = Array.length weights in
  let len =
    Array.fold_left (fun len w -> if w > 0 then len + w else len) 0 weights
  in
  let out = Array.make len (-1) in
  ignore
    (spread ~ids:(Array.init n Fun.id) ~weights ~members:n
       ~sent:(Array.make n 0) ~out);
  out

let is_spread_of ~weights seq =
  let n = Array.length weights in
  let counts = Array.make n 0 in
  let ok = ref true in
  Array.iter
    (fun i -> if i < 0 || i >= n then ok := false else counts.(i) <- counts.(i) + 1)
    seq;
  !ok
  && Array.for_all2
       (fun w c -> c = if w < 0 then 0 else w)
       weights counts
