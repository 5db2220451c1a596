module Error = Wfs_util.Error
module Tablefmt = Wfs_util.Tablefmt
module Fairness = Wfs_core.Fairness
module Trace = Wfs_obs.Trace
module Jsonl = Wfs_util.Jsonl
module Chaos = Wfs_chaos.Chaos

type section = {
  heading : string;
  tables : Tablefmt.t list;
  notes : string list;
}

let section ~heading ?(notes = []) tables = { heading; tables; notes }

let f2 = Tablefmt.cell_of_float ~decimals:2
let f4 = Tablefmt.cell_of_float ~decimals:4

(* --- wfs-bench/1 artifacts: re-render every table plus a run-parameters
   summary, so a committed baseline renders into the same dashboard as a
   fresh sweep. --- *)

let of_artifact (a : Wfs_runner.Artifact.t) =
  let params = Tablefmt.create ~title:"run parameters" ~columns:[ "param"; "value" ] in
  Tablefmt.add_row params [ "schema"; a.Wfs_runner.Artifact.schema ];
  Tablefmt.add_row params [ "horizon"; string_of_int a.horizon ];
  Tablefmt.add_row params [ "seed"; string_of_int a.seed ];
  Tablefmt.add_row params [ "seeds"; string_of_int a.seeds ];
  Tablefmt.add_row params [ "jobs"; string_of_int a.jobs ];
  Tablefmt.add_row params [ "runs"; string_of_int a.runs ];
  Tablefmt.add_row params [ "slots"; string_of_int a.slots ];
  Tablefmt.add_row params [ "wall_clock_s"; f2 a.wall_clock_s ];
  Tablefmt.add_row params [ "slots/s"; f2 a.slots_per_sec ];
  let tables =
    params
    :: List.map
         (fun (t : Wfs_runner.Artifact.table) ->
           let tf = Tablefmt.create ~title:t.title ~columns:t.columns in
           List.iter (fun r -> Tablefmt.add_row tf r) t.rows;
           tf)
         a.tables
  in
  section ~heading:"bench artifact" tables

(* --- fairness summaries over sampled selections.  Service share per flow
   is approximated by its share of sampled transmissions; Jain over those
   shares is the dashboard's first-glance fairness signal (the exact
   windowed eq-(1) gap lives in the wfs-windows stream). --- *)

let jain_of_counts counts =
  Fairness.jain (Array.map float_of_int counts)

let of_trace (c : Trace.contents) =
  let n = c.hdr.Trace.n_flows in
  let selected = Array.make n 0 in
  let samples = ref 0 in
  let idle = ref 0 in
  List.iter
    (fun (s : Trace.sample) ->
      incr samples;
      match s.Trace.selected with
      | None -> incr idle
      | Some f -> if f >= 0 && f < n then selected.(f) <- selected.(f) + 1)
    c.samples;
  let t = Tablefmt.create ~title:"trace summary" ~columns:[ "metric"; "value" ] in
  Tablefmt.add_row t [ "flows"; string_of_int n ];
  Tablefmt.add_row t [ "stride"; string_of_int c.hdr.Trace.stride ];
  Tablefmt.add_row t [ "samples"; string_of_int !samples ];
  Tablefmt.add_row t [ "idle samples"; string_of_int !idle ];
  Tablefmt.add_row t [ "jain(selected)"; f4 (jain_of_counts selected) ];
  let per = Tablefmt.create ~title:"per-flow sampled service" ~columns:[ "flow"; "selected" ] in
  Array.iteri
    (fun i k -> Tablefmt.add_row per [ string_of_int i; string_of_int k ])
    selected;
  section ~heading:"trace" [ t; per ]

let of_xray (c : Mux.contents) =
  let per_cell_sel = Array.make c.Mux.cells 0 in
  let per_cell_samples = Array.make c.Mux.cells 0 in
  let per_cell_rosters = Array.make c.Mux.cells 0 in
  let rosters = Array.make c.Mux.cells [||] in
  let global_sel = Array.make c.Mux.n_flows 0 in
  let per_cell_flow_sel = Array.make c.Mux.cells [||] in
  List.iter
    (fun e ->
      match e with
      | Mux.Roster { cell; gids; _ } ->
          per_cell_rosters.(cell) <- per_cell_rosters.(cell) + 1;
          rosters.(cell) <- gids
      | Mux.Sample { cell; sample } -> (
          per_cell_samples.(cell) <- per_cell_samples.(cell) + 1;
          match sample.Trace.selected with
          | None -> ()
          | Some local ->
              per_cell_sel.(cell) <- per_cell_sel.(cell) + 1;
              if Array.length per_cell_flow_sel.(cell) = 0 then
                per_cell_flow_sel.(cell) <- Array.make c.Mux.n_flows 0;
              let r = rosters.(cell) in
              if local >= 0 && local < Array.length r then begin
                let g = r.(local) in
                if g >= 0 && g < c.Mux.n_flows then begin
                  global_sel.(g) <- global_sel.(g) + 1;
                  per_cell_flow_sel.(cell).(g) <-
                    per_cell_flow_sel.(cell).(g) + 1
                end
              end))
    c.Mux.entries;
  let t =
    Tablefmt.create ~title:"per-cell fairness (sampled)"
      ~columns:[ "cell"; "rosters"; "samples"; "selected"; "jain(selected)" ]
  in
  for cell = 0 to c.Mux.cells - 1 do
    let counts = per_cell_flow_sel.(cell) in
    let resident =
      if Array.length counts = 0 then [||]
      else Array.of_list (List.filter (fun k -> k > 0) (Array.to_list counts))
    in
    Tablefmt.add_row t
      [
        string_of_int cell;
        string_of_int per_cell_rosters.(cell);
        string_of_int per_cell_samples.(cell);
        string_of_int per_cell_sel.(cell);
        (if Array.length resident = 0 then "-"
         else f4 (Fairness.jain (Array.map float_of_int resident)));
      ]
  done;
  let g = Tablefmt.create ~title:"timeline summary" ~columns:[ "metric"; "value" ] in
  Tablefmt.add_row g [ "cells"; string_of_int c.Mux.cells ];
  Tablefmt.add_row g [ "flows"; string_of_int c.Mux.n_flows ];
  Tablefmt.add_row g [ "stride"; string_of_int c.Mux.stride ];
  Tablefmt.add_row g [ "entries"; string_of_int (List.length c.Mux.entries) ];
  Tablefmt.add_row g [ "jain(global selected)"; f4 (jain_of_counts global_sel) ];
  section ~heading:"topology trace" [ g; t ]

(* --- flow journeys out of the causality log --- *)

let of_causality events =
  let t =
    Tablefmt.create ~title:"flow journeys"
      ~columns:
        [
          "flow"; "moves"; "blocked"; "lost"; "corrupt"; "rehomes";
          "trunc lag"; "trunc credit"; "path";
        ]
  in
  List.iter
    (fun flow ->
      let j = Causality.journey events ~flow in
      let moves = ref 0 and blocked = ref 0 and lost = ref 0 in
      let corrupt = ref 0 and rehomes = ref 0 in
      let path = ref [] in
      List.iter
        (fun e ->
          match e with
          | Causality.Move { src; dst; verdict; _ } ->
              if String.equal verdict Causality.verdict_blocked then
                incr blocked
              else begin
                incr moves;
                if String.equal verdict Causality.verdict_lost then incr lost;
                if String.equal verdict Causality.verdict_corrupt then
                  incr corrupt;
                (match !path with
                | [] -> path := [ dst; src ]
                | _ -> path := dst :: !path)
              end
          | Causality.Rehome { dst; _ } ->
              incr rehomes;
              (match !path with
              | [] -> path := [ dst ]
              | _ -> path := dst :: !path)
          | Causality.Crash _ | Causality.Carry _ -> ())
        j;
      let tlag, tcr = Causality.truncation events ~flow in
      Tablefmt.add_row t
        [
          string_of_int flow;
          string_of_int !moves;
          string_of_int !blocked;
          string_of_int !lost;
          string_of_int !corrupt;
          string_of_int !rehomes;
          f4 tlag;
          string_of_int tcr;
          String.concat ">" (List.rev_map string_of_int !path);
        ])
    (Causality.flows events);
  let crashes =
    Tablefmt.create ~title:"cell crashes" ~columns:[ "slot"; "cell"; "orphaned" ]
  in
  List.iter
    (fun e ->
      match e with
      | Causality.Crash { slot; cell; orphaned } ->
          Tablefmt.add_row crashes
            [
              string_of_int slot;
              string_of_int cell;
              string_of_int (List.length orphaned);
            ]
      | Causality.Move _ | Causality.Rehome _ | Causality.Carry _ -> ())
    events;
  section ~heading:"handoff causality"
    ~notes:
      [
        Printf.sprintf "%d events; truncation totals are the cumulative \
                        §5 lag / §7 credit clamp bite per flow"
          (List.length events);
      ]
    [ t; crashes ]

let of_windows (c : Windowed.contents) =
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "tumbling windows (%d slots)" c.Windowed.window)
      ~columns:
        [
          "idx"; "start"; "end"; "jain"; "gap"; "arrivals"; "delivered";
          "dropped"; "backlog"; "loss";
        ]
  in
  List.iter
    (fun (w : Windowed.window) ->
      Tablefmt.add_row t
        [
          string_of_int w.Windowed.index;
          string_of_int w.start_slot;
          string_of_int w.end_slot;
          f4 w.jain;
          f4 w.gap;
          string_of_int w.arrivals;
          string_of_int w.delivered;
          string_of_int w.dropped;
          string_of_int w.backlog;
          f4 w.loss;
        ])
    c.Windowed.windows;
  section ~heading:"windowed aggregation" [ t ]

let of_skip k =
  section ~heading:"fast-path skip telemetry" [ Skip_telemetry.to_table k ]

(* --- chaos timelines, summarized per fault kind --- *)

let of_timeline ~path =
  Jsonl.load ~who:"Report.of_timeline" ~schema:Chaos.timeline_schema
    ~header:(fun _ -> Some ())
    ~record:Chaos.timeline_entry_of_json ~path ()
  |> Result.map (fun ((), entries) ->
         let events = List.map snd entries in
         let kind (ev : Chaos.event) = Chaos.fault_kind ev.Chaos.fault in
         let t =
           Tablefmt.create ~title:"fault timeline"
             ~columns:[ "kind"; "events"; "first slot"; "last slot" ]
         in
         List.iter
           (fun k ->
             let slots =
               List.filter_map
                 (fun (ev : Chaos.event) ->
                   if String.equal (kind ev) k then Some ev.Chaos.slot else None)
                 events
             in
             Tablefmt.add_row t
               [
                 k;
                 string_of_int (List.length slots);
                 string_of_int (List.fold_left Int.min max_int slots);
                 string_of_int (List.fold_left Int.max min_int slots);
               ])
           (List.sort_uniq String.compare (List.map kind events));
         section ~heading:"chaos timeline"
           ~notes:[ Printf.sprintf "%d events" (List.length events) ]
           [ t ])

(* --- any artifact, dispatched on its schema tag --- *)

let of_file ~path =
  let loaded load render = Result.map render (load ~path) in
  match Jsonl.schema_of ~path with
  | Some s when String.equal s Trace.schema -> loaded Trace.load of_trace
  | Some s when String.equal s Mux.schema -> loaded Mux.load of_xray
  | Some s when String.equal s Causality.schema ->
      loaded Causality.load of_causality
  | Some s when String.equal s Windowed.schema -> loaded Windowed.load of_windows
  | Some s when String.equal s Chaos.timeline_schema -> of_timeline ~path
  | Some s when not (String.equal s Wfs_runner.Artifact.schema_version) ->
      Error
        (Error.v Error.Bad_spec ~who:"Report.of_file" "unknown schema"
           ~context:[ ("path", path); ("schema", s) ])
  | Some _ | None -> (
      (* A pretty-printed wfs-bench/1 document has no header line; the
         artifact reader checks its schema over the whole document. *)
      match Wfs_runner.Artifact.read path with
      | Ok a -> Ok (of_artifact a)
      | Error msg ->
          Error
            (Error.v Error.Bad_spec ~who:"Report.of_file" msg
               ~context:[ ("path", path) ]))

(* --- rendering --- *)

let to_text sections =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf "== ";
      Buffer.add_string buf s.heading;
      Buffer.add_string buf " ==\n";
      List.iter
        (fun t ->
          Buffer.add_string buf (Tablefmt.render t);
          Buffer.add_char buf '\n')
        s.tables;
      List.iter
        (fun n ->
          Buffer.add_string buf n;
          Buffer.add_char buf '\n')
        s.notes;
      Buffer.add_char buf '\n')
    sections;
  Buffer.contents buf

(* lint: allow R8 -- wfs_report's sanctioned stdout surface: [print] only echoes [to_text]; the report binary owns the channel *)
let print sections = print_string (to_text sections)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  "body{font-family:sans-serif;margin:2em;color:#222}\
   h1{border-bottom:2px solid #444}\
   h2{margin-top:1.6em;color:#334}\
   h3{margin-bottom:0.3em;color:#556}\
   table{border-collapse:collapse;margin:0.5em 0 1.2em 0}\
   th,td{border:1px solid #bbb;padding:0.25em 0.7em;text-align:right;\
   font-variant-numeric:tabular-nums}\
   th{background:#eef;text-align:center}\
   td:first-child{text-align:left}\
   p.note{color:#666;font-size:0.9em}"

let to_html ~title sections =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>";
  Buffer.add_string buf (html_escape title);
  Buffer.add_string buf "</title><style>";
  Buffer.add_string buf style;
  Buffer.add_string buf "</style></head><body><h1>";
  Buffer.add_string buf (html_escape title);
  Buffer.add_string buf "</h1>\n";
  List.iter
    (fun s ->
      Buffer.add_string buf "<h2>";
      Buffer.add_string buf (html_escape s.heading);
      Buffer.add_string buf "</h2>\n";
      List.iter
        (fun t ->
          Buffer.add_string buf "<h3>";
          Buffer.add_string buf (html_escape (Tablefmt.title t));
          Buffer.add_string buf "</h3>\n<table><tr>";
          List.iter
            (fun c ->
              Buffer.add_string buf "<th>";
              Buffer.add_string buf (html_escape c);
              Buffer.add_string buf "</th>")
            (Tablefmt.columns t);
          Buffer.add_string buf "</tr>\n";
          List.iter
            (fun row ->
              Buffer.add_string buf "<tr>";
              List.iter
                (fun cell ->
                  Buffer.add_string buf "<td>";
                  Buffer.add_string buf (html_escape cell);
                  Buffer.add_string buf "</td>")
                row;
              Buffer.add_string buf "</tr>\n")
            (Tablefmt.rows t);
          Buffer.add_string buf "</table>\n")
        s.tables;
      List.iter
        (fun n ->
          Buffer.add_string buf "<p class=\"note\">";
          Buffer.add_string buf (html_escape n);
          Buffer.add_string buf "</p>\n")
        s.notes)
    sections;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let write_html ~path ~title sections =
  Jsonl.with_out path (fun oc ->
      output_string oc (to_html ~title sections))
