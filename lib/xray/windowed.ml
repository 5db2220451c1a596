module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl
module Metrics = Wfs_core.Metrics
module Fairness = Wfs_core.Fairness

let schema = "wfs-windows/1"

type window = {
  index : int;
  start_slot : int;
  end_slot : int;
  jain : float;
  gap : float;
  arrivals : int;
  delivered : int;
  dropped : int;
  backlog : int;
  loss : float;
}

let window_to_json w =
  Json.Obj
    [
      ("i", Json.Int w.index);
      ("s", Json.Int w.start_slot);
      ("e", Json.Int w.end_slot);
      ("jain", Json.of_float_ext w.jain);
      ("gap", Json.of_float_ext w.gap);
      ("arr", Json.Int w.arrivals);
      ("del", Json.Int w.delivered);
      ("drop", Json.Int w.dropped);
      ("bkl", Json.Int w.backlog);
      ("loss", Json.of_float_ext w.loss);
    ]

let window_of_json v =
  let ( let* ) = Option.bind in
  let int key = Option.bind (Json.member key v) Json.to_int in
  let fl key = Option.bind (Json.member key v) Json.to_float_ext in
  let* index = int "i" in
  let* start_slot = int "s" in
  let* end_slot = int "e" in
  let* jain = fl "jain" in
  let* gap = fl "gap" in
  let* arrivals = int "arr" in
  let* delivered = int "del" in
  let* dropped = int "drop" in
  let* backlog = int "bkl" in
  let* loss = fl "loss" in
  Some
    {
      index;
      start_slot;
      end_slot;
      jain;
      gap;
      arrivals;
      delivered;
      dropped;
      backlog;
      loss;
    }

let window_to_string w = Json.to_string ~pretty:false (window_to_json w)

let window_of_string line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> window_of_json v

let feq a b = Float.compare a b = 0

let window_equal a b =
  a.index = b.index && a.start_slot = b.start_slot && a.end_slot = b.end_slot
  && feq a.jain b.jain && feq a.gap b.gap && a.arrivals = b.arrivals
  && a.delivered = b.delivered && a.dropped = b.dropped
  && a.backlog = b.backlog && feq a.loss b.loss

(* --- collector.

   Tumbling windows over CUMULATIVE metrics snapshots: each [observe]
   carries the live accumulator, and a window closes on the first
   observation whose end-exclusive position reaches the next boundary.
   When observations are sparser than the window length (a topology
   sampling only at epoch barriers) the closed window's [start_slot] /
   [end_slot] record the span actually covered — the format never
   pretends to a resolution the sampling did not have. --- *)

type t = {
  weights : float array;
  window : int;
  mutable next_boundary : int;
  mutable win_start : int;
  mutable index : int;
  mutable base_arr : int;
  mutable base_del : int;
  mutable base_drop : int;
  base_flow_arr : int array;
  base_flow_del : int array;
  mutable rev : window list;
}

let create ~weights ~window =
  if window < 1 then
    Error.bad_config ~who:"Windowed.create" "window must be >= 1";
  if Array.length weights = 0 then
    Error.bad_config ~who:"Windowed.create" "no flows";
  Array.iter
    (fun w ->
      if not (w > 0.) then
        Error.bad_config ~who:"Windowed.create" "weights must be > 0")
    weights;
  {
    weights;
    window;
    next_boundary = window;
    win_start = 0;
    index = 0;
    base_arr = 0;
    base_del = 0;
    base_drop = 0;
    base_flow_arr = Array.make (Array.length weights) 0;
    base_flow_del = Array.make (Array.length weights) 0;
    rev = [];
  }

let totals metrics n =
  let arr = ref 0 and del = ref 0 and drop = ref 0 and bkl = ref 0 in
  for i = 0 to n - 1 do
    arr := !arr + Metrics.arrivals metrics ~flow:i;
    del := !del + Metrics.delivered metrics ~flow:i;
    drop := !drop + Metrics.dropped metrics ~flow:i;
    bkl := !bkl + Metrics.backlog_remaining metrics ~flow:i
  done;
  (!arr, !del, !drop, !bkl)

let close t ~end_slot ~metrics =
  let n = Array.length t.weights in
  let arr, del, drop, bkl = totals metrics n in
  let d_arr = arr - t.base_arr in
  let d_del = del - t.base_del in
  let d_drop = drop - t.base_drop in
  (* Fairness over the window's per-flow normalized service.  The eq-(1)
     gap is restricted to flows that actually had traffic in the window
     (an idle flow is not backlogged, so the paper's gap does not apply to
     it); Jain runs over the same set. *)
  let norm = ref [] in
  for i = n - 1 downto 0 do
    let da = Metrics.arrivals metrics ~flow:i - t.base_flow_arr.(i) in
    let dd = Metrics.delivered metrics ~flow:i - t.base_flow_del.(i) in
    let active = da > 0 || dd > 0 || Metrics.backlog_remaining metrics ~flow:i > 0 in
    if active then norm := (float_of_int dd /. t.weights.(i)) :: !norm;
    t.base_flow_arr.(i) <- t.base_flow_arr.(i) + da;
    t.base_flow_del.(i) <- t.base_flow_del.(i) + dd
  done;
  let norm = Array.of_list !norm in
  let jain = Fairness.jain norm in
  let gap =
    if Array.length norm < 2 then 0.
    else
      let ones = Array.make (Array.length norm) 1. in
      Fairness.max_normalized_gap ~weights:ones ~service:norm
  in
  let w =
    {
      index = t.index;
      start_slot = t.win_start;
      end_slot;
      jain;
      gap;
      arrivals = d_arr;
      delivered = d_del;
      dropped = d_drop;
      backlog = bkl;
      loss = (if d_arr = 0 then 0. else float_of_int d_drop /. float_of_int d_arr);
    }
  in
  t.rev <- w :: t.rev;
  t.index <- t.index + 1;
  t.win_start <- end_slot;
  t.base_arr <- arr;
  t.base_del <- del;
  t.base_drop <- drop;
  t.next_boundary <- (((end_slot / t.window) + 1) * t.window)

let observe t ~slot ~metrics =
  let pos = slot + 1 in
  if pos >= t.next_boundary && pos > t.win_start then
    close t ~end_slot:pos ~metrics

let flush t ~slot ~metrics =
  let pos = slot + 1 in
  if pos > t.win_start then close t ~end_slot:pos ~metrics

let windows t = List.rev t.rev

let hook t : Wfs_core.Simulator.hook =
 fun ~slot ~selected:_ ~states:_ ~metrics ~predicted_good:_ ->
  observe t ~slot ~metrics

(* --- file round-trip: a framed stream whose header carries the window
   length. --- *)

type contents = { window : int; windows : window list }

let write ~path ~window windows =
  if window < 1 then Error.bad_config ~who:"Windowed.write" "window must be >= 1";
  Jsonl.write_file ~path ~schema [ ("window", Json.Int window) ] window_to_json
    windows

let window_of_fields fields =
  match Option.bind (Json.member "window" (Json.Obj fields)) Json.to_int with
  | Some window when window >= 1 -> Some window
  | Some _ | None -> None

let load ~path =
  Jsonl.load ~who:"Windowed.load" ~schema ~header:window_of_fields
    ~record:window_of_json ~path ()
  |> Result.map (fun (window, windows) -> { window; windows })
