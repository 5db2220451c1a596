module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl

let schema = "wfs-trace/1"

type flow_sample = {
  queue : int;
  good : bool;
  tag : float option;
  credit : int option;
}

type sample = {
  slot : int;
  selected : int option;
  virtual_time : float option;
  lag_sum : int option;
  flows : flow_sample array;
}

type header = {
  n_flows : int;
  stride : int;
  params : (string * Json.t) list;
}

let reserved = [ "schema"; "n_flows"; "stride" ]

let header ?(stride = 1) ?(params = []) ~n_flows () =
  if n_flows < 1 then
    Error.bad_config ~who:"Trace.header" "n_flows must be >= 1";
  if stride < 1 then Error.bad_config ~who:"Trace.header" "stride must be >= 1";
  List.iter
    (fun (k, _) ->
      if List.exists (String.equal k) reserved then
        Error.bad_config ~who:"Trace.header" ("reserved param name: " ^ k))
    params;
  { n_flows; stride; params }

(* --- JSON codecs.  Optional quantities are encoded by field presence, so
   a scheduler with no virtual time produces no "vt" key at all — parsers
   must not read absence as zero. --- *)

let header_fields h =
  ("n_flows", Json.Int h.n_flows) :: ("stride", Json.Int h.stride) :: h.params

let header_to_json h = Jsonl.header ~schema (header_fields h)

let header_of_fields fields =
  let ( let* ) = Option.bind in
  let int key = Option.bind (Json.member key (Json.Obj fields)) Json.to_int in
  let* n_flows = int "n_flows" in
  let* stride = int "stride" in
  if n_flows < 1 || stride < 1 then None
  else
    let params =
      List.filter
        (fun (k, _) -> not (List.exists (String.equal k) reserved))
        fields
    in
    Some { n_flows; stride; params }

let header_of_json v = Option.bind (Jsonl.header_fields ~schema v) header_of_fields

let flow_to_json f =
  let base = [ ("q", Json.Int f.queue); ("g", Json.Int (if f.good then 1 else 0)) ] in
  let base =
    match f.tag with None -> base | Some t -> base @ [ ("tag", Json.of_float_ext t) ]
  in
  match f.credit with None -> base | Some c -> base @ [ ("cr", Json.Int c) ]

let flow_of_json v =
  let ( let* ) = Option.bind in
  let* queue = Option.bind (Json.member "q" v) Json.to_int in
  let* good = Option.bind (Json.member "g" v) Json.to_int in
  let tag = Option.bind (Json.member "tag" v) Json.to_float_ext in
  let credit = Option.bind (Json.member "cr" v) Json.to_int in
  Some { queue; good = good <> 0; tag; credit }

let sample_to_json s =
  let fields = [ ("slot", Json.Int s.slot) ] in
  let fields =
    match s.selected with
    | None -> fields
    | Some f -> fields @ [ ("sel", Json.Int f) ]
  in
  let fields =
    match s.virtual_time with
    | None -> fields
    | Some v -> fields @ [ ("vt", Json.of_float_ext v) ]
  in
  let fields =
    match s.lag_sum with
    | None -> fields
    | Some l -> fields @ [ ("lag", Json.Int l) ]
  in
  Json.Obj
    (fields
    @ [
        ( "flows",
          Json.Arr (Array.to_list (Array.map (fun f -> Json.Obj (flow_to_json f)) s.flows))
        );
      ])

let sample_of_json v =
  let ( let* ) = Option.bind in
  let* slot = Option.bind (Json.member "slot" v) Json.to_int in
  let selected = Option.bind (Json.member "sel" v) Json.to_int in
  let virtual_time = Option.bind (Json.member "vt" v) Json.to_float_ext in
  let lag_sum = Option.bind (Json.member "lag" v) Json.to_int in
  let* flows = Option.bind (Json.member "flows" v) Json.to_list in
  let* flows =
    List.fold_left
      (fun acc fv ->
        match acc with
        | None -> None
        | Some acc -> Option.map (fun f -> f :: acc) (flow_of_json fv))
      (Some []) flows
  in
  Some
    {
      slot;
      selected;
      virtual_time;
      lag_sum;
      flows = Array.of_list (List.rev flows);
    }

let sample_to_string s = Json.to_string ~pretty:false (sample_to_json s)

let sample_of_string line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> sample_of_json v

let header_to_string h = Json.to_string ~pretty:false (header_to_json h)

(* --- equality, for round-trip tests.  Floats compare by total order so a
   nan that survives of_float_ext round-trips as equal. --- *)

let float_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Float.compare x y = 0
  | (None | Some _), _ -> false

let int_opt_equal (a : int option) (b : int option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | (None | Some _), _ -> false

let flow_equal a b =
  a.queue = b.queue && a.good = b.good && float_opt_equal a.tag b.tag
  && int_opt_equal a.credit b.credit

let sample_equal a b =
  a.slot = b.slot
  && int_opt_equal a.selected b.selected
  && float_opt_equal a.virtual_time b.virtual_time
  && int_opt_equal a.lag_sum b.lag_sum
  && Array.length a.flows = Array.length b.flows
  && Array.for_all2 flow_equal a.flows b.flows

let header_equal a b =
  a.n_flows = b.n_flows && a.stride = b.stride
  && List.length a.params = List.length b.params
  && List.for_all2
       (fun (ka, va) (kb, vb) ->
         String.equal ka kb
         && String.equal
              (Json.to_string ~pretty:false va)
              (Json.to_string ~pretty:false vb))
       a.params b.params

type contents = { hdr : header; samples : sample list }

let load ~path =
  Jsonl.load ~who:"Trace.load" ~schema ~header:header_of_fields
    ~record:sample_of_json
    ~check:(fun hdr s ->
      if Array.length s.flows <> hdr.n_flows then
        Some "sample width disagrees with header"
      else None)
    ~path ()
  |> Result.map (fun (hdr, samples) -> { hdr; samples })
