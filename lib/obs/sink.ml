module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl

(* The JSONL form is a framed stream; the CSV form is a plain table with
   a column-header row. *)
type out = Jsonl of Jsonl.writer | Csv of out_channel * Buffer.t

type t = {
  out : out;
  n_flows : int;
  mutable written : int;
  mutable closed : bool;
}

let make out (hdr : Trace.header) =
  { out; n_flows = hdr.Trace.n_flows; written = 0; closed = false }

let jsonl ~path hdr =
  let fields = Trace.header_fields hdr in
  make (Jsonl (Jsonl.create ~path ~schema:Trace.schema fields)) hdr

let csv_columns n_flows =
  let base = [ "slot"; "selected"; "virtual_time"; "lag_sum" ] in
  let per_flow i =
    [
      Printf.sprintf "q%d" i;
      Printf.sprintf "good%d" i;
      Printf.sprintf "tag%d" i;
      Printf.sprintf "credit%d" i;
    ]
  in
  base @ List.concat (List.init n_flows per_flow)

let csv ~path (hdr : Trace.header) =
  let oc = open_out_bin path in
  output_string oc (String.concat "," (csv_columns hdr.Trace.n_flows));
  output_char oc '\n';
  make (Csv (oc, Buffer.create 256)) hdr

(* One reused CSV row buffer per sink: the per-sample cost is formatting
   plus one [output_string]; nothing accumulates in memory (bounded
   streaming). *)

let put_csv_cell buf s = Buffer.add_string buf s

let write_csv buf (s : Trace.sample) =
  Buffer.add_string buf (string_of_int s.Trace.slot);
  Buffer.add_char buf ',';
  (match s.Trace.selected with
  | None -> ()
  | Some f -> put_csv_cell buf (string_of_int f));
  Buffer.add_char buf ',';
  (match s.Trace.virtual_time with
  | None -> ()
  | Some v -> put_csv_cell buf (Json.float_to_string v));
  Buffer.add_char buf ',';
  (match s.Trace.lag_sum with
  | None -> ()
  | Some l -> put_csv_cell buf (string_of_int l));
  Array.iter
    (fun (f : Trace.flow_sample) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int f.Trace.queue);
      Buffer.add_char buf ',';
      Buffer.add_char buf (if f.Trace.good then '1' else '0');
      Buffer.add_char buf ',';
      (match f.Trace.tag with
      | None -> ()
      | Some v -> put_csv_cell buf (Json.float_to_string v));
      Buffer.add_char buf ',';
      match f.Trace.credit with
      | None -> ()
      | Some c -> put_csv_cell buf (string_of_int c))
    s.Trace.flows;
  Buffer.add_char buf '\n'

let write t (s : Trace.sample) =
  if t.closed then Error.bad_config ~who:"Sink.write" "sink already closed";
  if Array.length s.Trace.flows <> t.n_flows then
    Error.bad_config ~who:"Sink.write" "sample width disagrees with header";
  (match t.out with
  | Jsonl w -> Jsonl.write w (Trace.sample_to_json s)
  | Csv (oc, buf) ->
      Buffer.clear buf;
      write_csv buf s;
      Buffer.output_buffer oc buf);
  t.written <- t.written + 1

let written t = t.written

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.out with Jsonl w -> Jsonl.close w | Csv (oc, _) -> close_out oc
  end
