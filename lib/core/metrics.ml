module Summary = Wfs_util.Stats.Summary
module Histogram = Wfs_util.Stats.Histogram
module Json = Wfs_util.Json

type flow_acc = {
  delays : Summary.t;
  histogram : Histogram.t option;
  mutable arrivals : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable failed : int;
}

type t = {
  mutable flows : flow_acc array;
  mutable idle : int;
  mutable busy : int;
}

let empty_flow ~histograms =
  {
    delays = Summary.create ();
    histogram = (if histograms then Some (Histogram.create ()) else None);
    arrivals = 0;
    delivered = 0;
    dropped = 0;
    failed = 0;
  }

let create ?(histograms = false) ~n_flows () =
  {
    flows = Array.init n_flows (fun _ -> empty_flow ~histograms);
    idle = 0;
    busy = 0;
  }

let add_flows ?(histograms = false) t ~count =
  if count < 0 then Wfs_util.Error.invalid "Metrics.add_flows" "negative count";
  t.flows <-
    Array.append t.flows (Array.init count (fun _ -> empty_flow ~histograms))

let acc t flow = t.flows.(flow)

let on_arrivals t ~flow ~count =
  (acc t flow).arrivals <- (acc t flow).arrivals + count

let on_deliver t ~flow ~delay =
  let a = acc t flow in
  a.delivered <- a.delivered + 1;
  Summary.add a.delays (float_of_int delay);
  match a.histogram with
  | Some h -> Histogram.add h (float_of_int delay)
  | None -> ()

let on_drop t ~flow = (acc t flow).dropped <- (acc t flow).dropped + 1

let on_drops t ~flow ~count =
  (acc t flow).dropped <- (acc t flow).dropped + count

let on_idle_slot t = t.idle <- t.idle + 1

let on_idle_slots t ~count =
  if count < 0 then Wfs_util.Error.invalid "Metrics.on_idle_slots" "negative count";
  t.idle <- t.idle + count

let on_busy_slot t = t.busy <- t.busy + 1
let on_failed_attempt t ~flow = (acc t flow).failed <- (acc t flow).failed + 1

let n_flows t = Array.length t.flows
let arrivals t ~flow = (acc t flow).arrivals
let delivered t ~flow = (acc t flow).delivered
let dropped t ~flow = (acc t flow).dropped
let failed_attempts t ~flow = (acc t flow).failed
let mean_delay t ~flow = Summary.mean (acc t flow).delays

let max_delay t ~flow =
  let a = acc t flow in
  if Summary.count a.delays = 0 then 0. else Summary.max a.delays

let stddev_delay t ~flow = Summary.stddev (acc t flow).delays

(* Two distinct "no data" situations, two conventions: a histogram with no
   samples is an empty {e measurement} and yields [nan] (the caller asked a
   statistical question with no answer); metrics created without
   [~histograms] are a {e configuration} mistake and raise through the
   typed taxonomy so runner failure tables classify it as Bad_config. *)
let delay_percentile t ~flow ~p =
  match (acc t flow).histogram with
  | Some h -> Histogram.percentile h p
  | None ->
      Wfs_util.Error.bad_config ~who:"Metrics.delay_percentile"
        "metrics were created without ~histograms:true"

let loss t ~flow =
  let a = acc t flow in
  if a.arrivals = 0 then 0. else float_of_int a.dropped /. float_of_int a.arrivals

let drop_share t ~flow =
  let a = acc t flow in
  let settled = a.delivered + a.dropped in
  if settled = 0 then 0. else float_of_int a.dropped /. float_of_int settled

let throughput t ~flow ~slots =
  if slots <= 0 then 0.
  else float_of_int (acc t flow).delivered /. float_of_int slots

let idle_slots t = t.idle
let busy_slots t = t.busy

let backlog_remaining t ~flow =
  let a = acc t flow in
  a.arrivals - a.delivered - a.dropped

(* A source flow that recorded nothing leaves its target as it was, since
   both merges below copy the other side's values when one side is empty;
   skipping it saves a fresh row for every flow that was present but
   never served.  (An empty source histogram still merges into a target
   that has none, as the merge would install it.) *)
let untouched (s : flow_acc) ~(into : flow_acc) =
  s.arrivals = 0 && s.delivered = 0 && s.dropped = 0 && s.failed = 0
  && Summary.count s.delays = 0
  &&
  match (s.histogram, into.histogram) with
  | None, _ -> true
  | Some h, Some _ -> Histogram.count h = 0
  | Some _, None -> false

(* Merging through Summary.merge/Histogram.merge keeps the "absorb into
   empty = exact copy" property the multi-cell zero-mobility byte-identity
   gate relies on: both merges copy the non-empty side's floats verbatim
   when the other side has no samples. *)
let absorb t ~src ~map =
  Array.iteri
    (fun i (s : flow_acc) ->
      let j = map i in
      let d = t.flows.(j) in
      if not (untouched s ~into:d) then
        t.flows.(j) <-
          {
            delays = Summary.merge d.delays s.delays;
            histogram =
              (match (d.histogram, s.histogram) with
              | Some a, Some b -> Some (Histogram.merge a b)
              | (Some _ as a), None -> a
              | None, (Some _ as b) -> b
              | None, None -> None);
            arrivals = d.arrivals + s.arrivals;
            delivered = d.delivered + s.delivered;
            dropped = d.dropped + s.dropped;
            failed = d.failed + s.failed;
          })
    src.flows;
  t.idle <- t.idle + src.idle;
  t.busy <- t.busy + src.busy

(* Checkpoint/resume serialization: every float goes through the
   shortest-exact encoder, so a journaled run renders byte-identically to
   a live one. *)

let flow_to_json a =
  Json.Obj
    (("delays", Summary.to_json a.delays)
    :: (match a.histogram with
       | None -> []
       | Some h -> [ ("histogram", Histogram.to_json h) ])
    @ [
        ("arrivals", Json.Int a.arrivals);
        ("delivered", Json.Int a.delivered);
        ("dropped", Json.Int a.dropped);
        ("failed", Json.Int a.failed);
      ])

let flow_of_json v =
  let ( let* ) = Option.bind in
  let* delays = Option.bind (Json.member "delays" v) Summary.of_json in
  let* histogram =
    match Json.member "histogram" v with
    | None -> Some None
    | Some h -> Option.map Option.some (Histogram.of_json h)
  in
  let* arrivals = Option.bind (Json.member "arrivals" v) Json.to_int in
  let* delivered = Option.bind (Json.member "delivered" v) Json.to_int in
  let* dropped = Option.bind (Json.member "dropped" v) Json.to_int in
  let* failed = Option.bind (Json.member "failed" v) Json.to_int in
  Some { delays; histogram; arrivals; delivered; dropped; failed }

let to_json t =
  Json.Obj
    [
      ("flows", Json.Arr (Array.to_list (Array.map flow_to_json t.flows)));
      ("idle", Json.Int t.idle);
      ("busy", Json.Int t.busy);
    ]

let of_json v =
  let ( let* ) = Option.bind in
  let* flows = Option.bind (Json.member "flows" v) Json.to_list in
  let* flows =
    List.fold_left
      (fun acc f ->
        match (acc, flow_of_json f) with
        | Some acc, Some f -> Some (f :: acc)
        | _ -> None)
      (Some []) flows
    |> Option.map (fun l -> Array.of_list (List.rev l))
  in
  let* idle = Option.bind (Json.member "idle" v) Json.to_int in
  let* busy = Option.bind (Json.member "busy" v) Json.to_int in
  Some { flows; idle; busy }
