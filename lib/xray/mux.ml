module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl
module Sched = Wfs_core.Wireless_sched
module Trace = Wfs_obs.Trace

let schema = "wfs-xray-trace/1"

type entry =
  | Roster of { cell : int; slot : int; gids : int array }
  | Sample of { cell : int; sample : Trace.sample }

let reserved = [ "schema"; "cells"; "n_flows"; "stride" ]

(* --- line codec.  A roster line is {"cell":c,"slot":s,"roster":[gids]};
   a sample line is the wfs-trace/1 sample object with a "cell" field
   prepended (Trace.sample_of_json ignores the extra key, so the sample
   codec is reused bit-exactly). --- *)

let entry_to_json = function
  | Roster { cell; slot; gids } ->
      Json.Obj
        [
          ("cell", Json.Int cell);
          ("slot", Json.Int slot);
          ("roster", Json.Arr (Array.to_list (Array.map (fun g -> Json.Int g) gids)));
        ]
  | Sample { cell; sample } -> (
      match Trace.sample_to_json sample with
      | Json.Obj fields -> Json.Obj (("cell", Json.Int cell) :: fields)
      | other -> other)

let entry_of_json v =
  let ( let* ) = Option.bind in
  let* cell = Option.bind (Json.member "cell" v) Json.to_int in
  match Json.member "roster" v with
  | Some rv ->
      let* slot = Option.bind (Json.member "slot" v) Json.to_int in
      let* gids = Json.to_list rv in
      let* gids =
        List.fold_left
          (fun acc gv ->
            match acc with
            | None -> None
            | Some acc -> Option.map (fun g -> g :: acc) (Json.to_int gv))
          (Some []) gids
      in
      Some (Roster { cell; slot; gids = Array.of_list (List.rev gids) })
  | None ->
      let* sample = Trace.sample_of_json v in
      Some (Sample { cell; sample })

let entry_to_string e = Json.to_string ~pretty:false (entry_to_json e)

let entry_of_string line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> entry_of_json v

let entry_equal a b =
  match (a, b) with
  | Roster a, Roster b ->
      a.cell = b.cell && a.slot = b.slot
      && Array.length a.gids = Array.length b.gids
      && Array.for_all2 ( = ) a.gids b.gids
  | Sample a, Sample b -> a.cell = b.cell && Trace.sample_equal a.sample b.sample
  | (Roster _ | Sample _), _ -> false

let entry_slot = function
  | Roster { slot; _ } -> slot
  | Sample { sample; _ } -> sample.Trace.slot

let entry_cell = function Roster { cell; _ } | Sample { cell; _ } -> cell

(* --- per-cell part writers.

   During the parallel phase of a topology epoch each cell appends to its
   OWN part file, so no cross-domain ordering exists to get wrong — the
   deterministic global order is reconstructed at [finish] by a positional
   merge on (slot, cell), which is exactly the order a --jobs 1 run would
   have produced.  Rosters are only written from the sequential barrier
   (cell install/rebuild), samples only from the owning cell's domain. --- *)

type part = { path : string; oc : out_channel; buf : Buffer.t }

type t = {
  cells : int;
  stride : int;
  params : (string * Json.t) list;
  parts : part array;
  mutable finished : bool;
}

let part_path ~part_base c = Printf.sprintf "%s.part%d" part_base c

let create ?(stride = 1) ?(params = []) ~cells ~part_base () =
  if cells < 1 then Error.bad_config ~who:"Mux.create" "cells must be >= 1";
  if stride < 1 then Error.bad_config ~who:"Mux.create" "stride must be >= 1";
  List.iter
    (fun (k, _) ->
      if List.exists (String.equal k) reserved then
        Error.bad_config ~who:"Mux.create" ("reserved param name: " ^ k))
    params;
  let parts =
    Array.init cells (fun c ->
        let path = part_path ~part_base c in
        { path; oc = open_out_bin path; buf = Buffer.create 256 })
  in
  { cells; stride; params; parts; finished = false }

let write_entry t e =
  let p = t.parts.(entry_cell e) in
  Buffer.clear p.buf;
  Json.to_buffer ~pretty:false p.buf (entry_to_json e);
  Buffer.add_char p.buf '\n';
  Buffer.output_buffer p.oc p.buf

let note_roster t ~cell ~slot ~gids =
  if t.finished then Error.bad_config ~who:"Mux.note_roster" "mux already finished";
  if cell < 0 || cell >= t.cells then
    Error.bad_config ~who:"Mux.note_roster" "cell out of range";
  write_entry t (Roster { cell; slot; gids })

let probe t ~cell ~n_flows (sched : Sched.instance) : Wfs_core.Simulator.hook =
  if cell < 0 || cell >= t.cells then
    Error.bad_config ~who:"Mux.probe" "cell out of range";
  if n_flows < 1 then Error.bad_config ~who:"Mux.probe" "n_flows must be >= 1";
  Wfs_obs.Probe.sampler ~stride:t.stride ~n_flows sched (fun sample ->
      write_entry t (Sample { cell; sample }))

let close_parts t = Array.iter (fun p -> flush p.oc; close_out_noerr p.oc) t.parts

let remove_parts t =
  Array.iter (fun p -> try Sys.remove p.path with Sys_error _ -> ()) t.parts

let abort t =
  if not t.finished then begin
    t.finished <- true;
    close_parts t;
    remove_parts t
  end

(* --- deterministic k-way merge.

   Each part is already slot-ordered (one cell's own timeline), so the
   global order is the positional merge on (slot, cell): smallest slot
   first, ties broken by cell id, within-cell order preserved.  This is
   byte-identical across --jobs because the parts themselves are — every
   cell's stream depends only on that cell's deterministic state. --- *)

type cursor = { ic : in_channel; mutable cur : (int * int * string) option }

let advance_cursor ~who cu =
  match input_line cu.ic with
  | exception End_of_file -> cu.cur <- None
  | line -> (
      match entry_of_string line with
      | Some e -> cu.cur <- Some (entry_slot e, entry_cell e, line)
      | None ->
          Error.invalidf who "corrupt part line during merge: %s" line)

(* CSV rendering of the merged timeline: one row per sample, flows mapped
   from cell-local index to global id through the latest roster of that
   cell; gids outside the sample's cell render as empty cells (presence
   encoding, like the single-cell CSV sink). *)

let csv_columns n_flows =
  let base = [ "slot"; "cell"; "selected"; "virtual_time"; "lag_sum" ] in
  let per_flow g =
    [
      Printf.sprintf "q%d" g;
      Printf.sprintf "good%d" g;
      Printf.sprintf "tag%d" g;
      Printf.sprintf "credit%d" g;
    ]
  in
  base @ List.concat (List.init n_flows per_flow)

let csv_row buf ~n_flows ~rosters (cell : int) (s : Trace.sample) =
  let who = "Mux.finish" in
  let roster =
    match rosters.(cell) with
    | Some r -> r
    | None -> Error.invalidf who "sample for cell %d precedes its roster" cell
  in
  if Array.length roster <> Array.length s.Trace.flows then
    Error.invalidf who "sample width disagrees with cell %d roster" cell;
  Buffer.clear buf;
  Buffer.add_string buf (string_of_int s.Trace.slot);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int cell);
  Buffer.add_char buf ',';
  (match s.Trace.selected with
  | None -> ()
  | Some local ->
      if local < 0 || local >= Array.length roster then
        Error.invalidf who "selected flow outside cell %d roster" cell;
      Buffer.add_string buf (string_of_int roster.(local)));
  Buffer.add_char buf ',';
  (match s.Trace.virtual_time with
  | None -> ()
  | Some v -> Buffer.add_string buf (Json.float_to_string v));
  Buffer.add_char buf ',';
  (match s.Trace.lag_sum with
  | None -> ()
  | Some l -> Buffer.add_string buf (string_of_int l));
  let by_gid = Array.make n_flows None in
  Array.iteri
    (fun local f ->
      let g = roster.(local) in
      if g < 0 || g >= n_flows then
        Error.invalidf who "roster gid %d outside n_flows %d" g n_flows;
      by_gid.(g) <- Some f)
    s.Trace.flows;
  Array.iter
    (fun slot_flow ->
      match slot_flow with
      | None -> Buffer.add_string buf ",,,,"
      | Some (f : Trace.flow_sample) ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int f.Trace.queue);
          Buffer.add_char buf ',';
          Buffer.add_char buf (if f.Trace.good then '1' else '0');
          Buffer.add_char buf ',';
          (match f.Trace.tag with
          | None -> ()
          | Some v -> Buffer.add_string buf (Json.float_to_string v));
          Buffer.add_char buf ',';
          (match f.Trace.credit with
          | None -> ()
          | Some c -> Buffer.add_string buf (string_of_int c)))
    by_gid;
  Buffer.add_char buf '\n'

(* Run [f] with the optional outputs open; each closes checked on success
   and unchecked when [f] raises. *)
let with_outputs t ~n_flows ?jsonl ?csv f =
  let with_jsonl k =
    match jsonl with
    | None -> k None
    | Some path ->
        Jsonl.with_file ~path ~schema
          (("cells", Json.Int t.cells)
          :: ("n_flows", Json.Int n_flows)
          :: ("stride", Json.Int t.stride)
          :: t.params)
          (fun w -> k (Some w))
  in
  let with_csv k =
    match csv with
    | None -> k None
    | Some path ->
        Jsonl.with_out path (fun oc ->
            output_string oc (String.concat "," (csv_columns n_flows));
            output_char oc '\n';
            k (Some oc))
  in
  with_jsonl (fun jout -> with_csv (fun cout -> f jout cout))

let finish t ~n_flows ?jsonl ?csv () =
  let who = "Mux.finish" in
  if t.finished then Error.bad_config ~who "mux already finished";
  if n_flows < 1 then Error.bad_config ~who "n_flows must be >= 1";
  t.finished <- true;
  close_parts t;
  Fun.protect
    ~finally:(fun () -> remove_parts t)
    (fun () ->
      let cursors =
        Array.map (fun p -> { ic = open_in_bin p.path; cur = None }) t.parts
      in
      Fun.protect
        ~finally:(fun () -> Array.iter (fun cu -> close_in_noerr cu.ic) cursors)
        (fun () ->
          Array.iter (advance_cursor ~who) cursors;
          with_outputs t ~n_flows ?jsonl ?csv (fun jout cout ->
              let rosters = Array.make t.cells None in
              let buf = Buffer.create 256 in
              let rec loop () =
                let best = ref (-1) in
                Array.iteri
                  (fun c cu ->
                    match cu.cur with
                    | None -> ()
                    | Some (slot, _, _) -> (
                        match !best with
                        | -1 -> best := c
                        | b -> (
                            match cursors.(b).cur with
                            | Some (bslot, _, _) when slot < bslot -> best := c
                            | _ -> ())))
                  cursors;
                match !best with
                | -1 -> ()
                | c ->
                    let cu = cursors.(c) in
                    (match cu.cur with
                    | None -> ()
                    | Some (_, _, line) ->
                        Option.iter (fun w -> Jsonl.write_line w line) jout;
                        (match entry_of_string line with
                        | Some (Roster { cell; gids; _ }) ->
                            rosters.(cell) <- Some gids
                        | Some (Sample { cell; sample }) ->
                            Option.iter
                              (fun oc ->
                                csv_row buf ~n_flows ~rosters cell sample;
                                Buffer.output_buffer oc buf)
                              cout
                        | None -> ()));
                    advance_cursor ~who cu;
                    loop ()
              in
              loop ())))

(* --- reading a merged stream back --- *)

type contents = {
  cells : int;
  n_flows : int;
  stride : int;
  params : (string * Json.t) list;
  entries : entry list;
}

let load ~path =
  let header fields =
    let ( let* ) = Option.bind in
    let int key = Option.bind (Json.member key (Json.Obj fields)) Json.to_int in
    let* cells = int "cells" in
    let* n_flows = int "n_flows" in
    let* stride = int "stride" in
    if cells < 1 || n_flows < 1 || stride < 1 then None
    else
      let params =
        List.filter
          (fun (k, _) -> not (List.exists (String.equal k) reserved))
          fields
      in
      Some { cells; n_flows; stride; params; entries = [] }
  in
  Jsonl.load ~who:"Mux.load" ~schema ~header ~record:entry_of_json
    ~check:(fun h e ->
      if entry_cell e < 0 || entry_cell e >= h.cells then
        Some "entry cell outside header cells"
      else None)
    ~path ()
  |> Result.map (fun (h, entries) -> { h with entries })
