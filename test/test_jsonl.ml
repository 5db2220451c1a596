(* Framed streams (Wfs_util.Jsonl): the codec's tail rule, one fuzz target
   over the loaders of all seven line-oriented formats, the torn-tail
   property, and checked closes on a full device. *)

module Jsonl = Wfs_util.Jsonl
module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Journal = Wfs_runner.Journal
module Artifact = Wfs_runner.Artifact
module Spec = Wfs_runner.Spec
module Topo_journal = Wfs_topo.Topo_journal
module Topology = Wfs_topo.Topology
module Cell = Wfs_topo.Cell
module Trace = Wfs_obs.Trace
module Sink = Wfs_obs.Sink
module Mux = Wfs_xray.Mux
module Causality = Wfs_xray.Causality
module Windowed = Wfs_xray.Windowed
module Report = Wfs_xray.Report
module Chaos = Wfs_chaos.Chaos

let check_int = Alcotest.(check int)

let with_temp_file f =
  let path = Filename.temp_file "wfs_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_raw path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* --- the codec's own tail rule, over a toy format: header {"max":m},
   records are ints, a record above [max] contradicts the header --- *)

let load_ints path =
  Jsonl.load ~who:"test" ~schema:"toy/1"
    ~header:(fun fields -> Option.bind (Json.member "max" (Json.Obj fields)) Json.to_int)
    ~record:Json.to_int
    ~check:(fun max r -> if r > max then Some "above max" else None)
    ~path ()

let test_tail_rule () =
  let hdr = {|{"schema":"toy/1","max":9}|} in
  let expect name text want =
    with_temp_file (fun path ->
        write_raw path text;
        match (load_ints path, want) with
        | Ok (_, rs), Ok n -> check_int name n (List.length rs)
        | Error e, Error line ->
            Alcotest.(check string) (name ^ ": kind") "bad-spec"
              (Error.kind_to_string e.Error.kind);
            Alcotest.(check (option string)) (name ^ ": line") line
              (List.assoc_opt "line" e.Error.context)
        | Ok _, Error _ -> Alcotest.failf "%s: loaded" name
        | Error e, Ok _ -> Alcotest.failf "%s: %s" name (Error.to_string e))
  in
  expect "clean" (hdr ^ "\n1\n2\n") (Ok 2);
  expect "torn final line dropped" (hdr ^ "\n1\n2\n{\"x") (Ok 2);
  expect "empty final line dropped" (hdr ^ "\n1\n\n") (Ok 1);
  expect "corruption before the end refused" (hdr ^ "\n1\nzz\n2\n")
    (Error (Some "3"));
  expect "contradiction refused on the final line" (hdr ^ "\n1\n10\n")
    (Error (Some "3"));
  expect "empty file refused" "" (Error None);
  expect "foreign schema refused" {|{"schema":"toy/2","max":9}|} (Error None);
  expect "bad header fields refused" {|{"schema":"toy/1"}|} (Error None);
  with_temp_file (fun path ->
      Sys.remove path;
      match load_ints path with
      | Ok _ -> Alcotest.fail "missing file loaded"
      | Error e ->
          Alcotest.(check string) "missing file" "bad-spec"
            (Error.kind_to_string e.Error.kind))

(* --- one valid file per format, written by the format's own writer --- *)

let spec =
  let tp = Spec.topo ~cells:3 ~mobility:0.2 ~epoch:100 in
  let plan =
    Spec.faults ~crash:0.2 ~recover:0.5 ~lose:0.2 ~corrupt:0.2 ~blackout:0.1
      ~blackout_len:50 ~exn:0. ~persist:0. ~budget:0 ()
  in
  Spec.with_topo (Spec.with_faults plan tp)
    (Spec.make ~seed:42 ~horizon:600 ~sched:"SwapA-P" (Spec.example 1))

(* A traced faulted topology run: merged timeline (sampled every 40 slots),
   causality log, window stream and fault timeline. *)
let topology_files ~mux:jsonl ~causality ~windows ~timeline =
  let mux = Mux.create ~stride:40 ~cells:3 ~part_base:jsonl () in
  let cause = Causality.create () in
  let tap =
    {
      Cell.on_roster =
        (fun ~cell ~slot ~gids -> Mux.note_roster mux ~cell ~slot ~gids);
      probe =
        (fun ~cell ~n_flows sched -> Some (Mux.probe mux ~cell ~n_flows sched));
      on_carry =
        (fun ~cell ~slot ~gid ~carried ~accepted ->
          Causality.record cause
            (Causality.Carry { slot; flow = gid; cell; carried; accepted }));
    }
  in
  let t = Topology.of_spec ~tap ~causality:cause spec in
  let w = Windowed.create ~weights:(Topology.weights t) ~window:100 in
  Topology.run ~jobs:1
    ~on_barrier:(fun ~slot ->
      Windowed.observe w ~slot:(slot - 1) ~metrics:(Topology.peek_metrics t))
    t;
  Windowed.flush w ~slot:(spec.Spec.horizon - 1) ~metrics:(Topology.metrics t);
  Windowed.write ~path:windows ~window:100 (Windowed.windows w);
  Causality.write ~path:causality (Causality.events cause);
  Chaos.write_timeline ~path:timeline
    [ (Spec.to_string spec, Topology.fault_timeline t) ];
  Mux.finish mux ~n_flows:(Topology.n_flows t) ~jsonl ()

let write_journal path =
  let w = Journal.create ~path ~params:[ ("horizon", Json.Int 600) ] () in
  for i = 0 to 5 do
    Journal.append w ~key:(Printf.sprintf "job %d" i)
      ~value:(Json.Obj [ ("delivered", Json.Int (100 * i)); ("loss", Json.Float 0.25) ])
  done;
  Journal.close w

let write_topo_journal path =
  let w = Topo_journal.create ~path ~params:[ ("seed", Json.Int 42) ] in
  List.iter
    (fun (spec, slots) ->
      List.iter
        (fun slot ->
          Topo_journal.append_snapshot w ~spec ~slot
            (Json.Arr [ Json.Int slot; Json.Str spec ]))
        slots;
      Topo_journal.append_result w ~spec (Json.Str "done"))
    [ ("a", [ 100; 200 ]); ("b", [ 100; 200; 300 ]) ];
  Topo_journal.close w

let write_trace path =
  let sink = Sink.jsonl ~path (Trace.header ~stride:2 ~n_flows:2 ()) in
  for slot = 0 to 7 do
    Sink.write sink
      {
        Trace.slot = 2 * slot;
        selected = (if slot mod 3 = 0 then None else Some (slot mod 2));
        virtual_time = Some (float_of_int slot /. 3.);
        lag_sum = (if slot mod 2 = 0 then Some slot else None);
        flows =
          Array.init 2 (fun i ->
              {
                Trace.queue = slot + i;
                good = i = 0;
                tag = Some (0.5 *. float_of_int slot);
                credit = (if i = 1 then Some (-slot) else None);
              });
      }
  done;
  Sink.close sink

let timeline_events (s : Report.section) =
  match s.Report.tables with
  | t :: _ ->
      List.fold_left
        (fun acc row -> acc + int_of_string (List.nth row 1))
        0 (Wfs_util.Tablefmt.rows t)
  | [] -> 0

(* Each format: its name, its valid bytes, and its loader reporting the
   number of records it kept. *)
let formats =
  lazy
    (let dir = Filename.temp_dir "wfs_jsonl" "" in
     let file name = Filename.concat dir name in
     topology_files ~mux:(file "mux") ~causality:(file "causality")
       ~windows:(file "windows") ~timeline:(file "timeline");
     write_journal (file "journal");
     write_topo_journal (file "topo_journal");
     write_trace (file "trace");
     let loaders =
       [
         ( "journal",
           fun path ->
             Result.map
               (fun (c : Journal.contents) -> List.length c.Journal.entries)
               (Journal.load ~path ()) );
         ( "topo_journal",
           fun path ->
             Result.map
               (fun (c : Topo_journal.contents) ->
                 List.length c.Topo_journal.results
                 + List.fold_left
                     (fun acc (_, s) -> acc + List.length s)
                     0 c.Topo_journal.snapshots)
               (Topo_journal.load ~path) );
         ( "trace",
           fun path ->
             Result.map
               (fun (c : Trace.contents) -> List.length c.Trace.samples)
               (Trace.load ~path) );
         ( "mux",
           fun path ->
             Result.map
               (fun (c : Mux.contents) -> List.length c.Mux.entries)
               (Mux.load ~path) );
         ("causality", fun path -> Result.map List.length (Causality.load ~path));
         ( "windows",
           fun path ->
             Result.map
               (fun (c : Windowed.contents) -> List.length c.Windowed.windows)
               (Windowed.load ~path) );
         ( "timeline",
           fun path -> Result.map timeline_events (Report.of_timeline ~path) );
       ]
     in
     let formats =
       List.map
         (fun (name, load) -> (name, read_file (file name), load))
         loaders
     in
     List.iter (fun (name, _, _) -> Sys.remove (file name)) formats;
     Sys.rmdir dir;
     Array.of_list formats)

let load_string load text =
  with_temp_file (fun path ->
      write_raw path text;
      load path)

(* Every writer ends its last record with a newline. *)
let record_lines text = List.length (String.split_on_char '\n' text) - 2

let test_base_files () =
  Array.iter
    (fun (name, text, load) ->
      match load_string load text with
      | Ok n ->
          Alcotest.(check bool) (name ^ ": at least two records") true (n >= 2);
          check_int (name ^ ": one record per line") (record_lines text) n
      | Error e -> Alcotest.failf "%s: %s" name (Error.to_string e))
    (Lazy.force formats)

(* --- the report recognizes each artifact by its schema tag --- *)

let test_report_dispatch () =
  let heading path =
    match Report.of_file ~path with
    | Ok s -> Ok s.Report.heading
    | Error e -> Error (e.Error.kind, List.assoc_opt "schema" e.Error.context)
  in
  let expect name want path =
    Alcotest.(check bool) name true (heading path = want)
  in
  Array.iter
    (fun (name, text, _) ->
      with_temp_file (fun path ->
          write_raw path text;
          let want =
            match name with
            | "journal" -> Error (Error.Bad_spec, Some Journal.schema)
            | "topo_journal" -> Error (Error.Bad_spec, Some Topo_journal.schema)
            | "trace" -> Ok "trace"
            | "mux" -> Ok "topology trace"
            | "causality" -> Ok "handoff causality"
            | "windows" -> Ok "windowed aggregation"
            | _ -> Ok "chaos timeline"
          in
          expect name want path))
    (Lazy.force formats);
  with_temp_file (fun path ->
      Artifact.write ~path
        (Artifact.v ~horizon:1 ~seed:1 ~seeds:1 ~jobs:1 ~runs:1 ~slots:1
           ~wall_clock_s:0. ~tables:[]);
      expect "pretty-printed artifact" (Ok "bench artifact") path);
  expect "a directory" (Error (Error.Bad_spec, None))
    (Filename.get_temp_dir_name ())

(* --- fuzz: random byte flips, cuts and insertions --- *)

type mutation = Flip of float * char | Cut of float | Insert of float * string

let mutation_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ '\n'; '{'; '}'; '['; ']'; '"'; ','; ':'; '-'; '.'; 'e' ]);
        (2, char_range '0' '9');
        (2, char);
      ]
  in
  frequency
    [
      (4, map2 (fun p c -> Flip (p, c)) (float_bound_exclusive 1.) byte);
      (1, map (fun p -> Cut p) (float_bound_exclusive 1.));
      ( 3,
        map2
          (fun p s -> Insert (p, s))
          (float_bound_exclusive 1.)
          (string_size ~gen:byte (1 -- 8)) );
    ]

let apply text m =
  let at p = int_of_float (p *. float_of_int (String.length text)) in
  match m with
  | Flip (p, c) when String.length text > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (at p) c;
      Bytes.to_string b
  | Flip _ -> text
  | Cut p -> String.sub text 0 (at p)
  | Insert (p, s) ->
      let i = at p in
      String.sub text 0 i ^ s ^ String.sub text i (String.length text - i)

let show_mutation = function
  | Flip (p, c) -> Printf.sprintf "flip@%.4f=%C" p c
  | Cut p -> Printf.sprintf "cut@%.4f" p
  | Insert (p, s) -> Printf.sprintf "insert@%.4f=%S" p s

let prop_fuzz_loaders =
  QCheck.Test.make ~name:"every framed-stream loader fuzzes to Ok or Bad_spec"
    ~count:1400
    (QCheck.make
       ~print:(fun (i, ms) ->
         Printf.sprintf "format %d: %s" i
           (String.concat " " (List.map show_mutation ms)))
       QCheck.Gen.(pair (int_bound 6) (list_size (1 -- 4) mutation_gen)))
    (fun (i, ms) ->
      let _, text, load = (Lazy.force formats).(i) in
      match load_string load (List.fold_left apply text ms) with
      | Ok _ -> true
      | Error e -> e.Error.kind = Error.Bad_spec)

(* --- tail: a cut anywhere inside the last line keeps every earlier
   record --- *)

let prop_torn_tail =
  QCheck.Test.make ~name:"a cut inside the last line keeps every earlier record"
    ~count:350
    QCheck.(pair (int_bound 6) (float_bound_exclusive 1.))
    (fun (i, p) ->
      let _, text, load = (Lazy.force formats).(i) in
      let body = String.sub text 0 (String.length text - 1) in
      let last = match String.rindex_opt body '\n' with Some j -> j + 1 | None -> 0 in
      let cut = last + int_of_float (p *. float_of_int (String.length body - last)) in
      match (load_string load text, load_string load (String.sub text 0 cut)) with
      | Ok n, Ok n' -> n' = n - 1
      | _, _ -> false)

(* --- a full device: every artifact writer raises instead of returning --- *)

let test_full_device () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let full = "/dev/full" in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s returned normally on a full device" name
    | exception Sys_error _ -> ()
  in
  let window =
    {
      Windowed.index = 0;
      start_slot = 0;
      end_slot = 10;
      jain = 1.;
      gap = 0.;
      arrivals = 3;
      delivered = 3;
      dropped = 0;
      backlog = 0;
      loss = 0.;
    }
  in
  raises "Causality.write" (fun () ->
      Causality.write ~path:full
        [ Causality.Rehome { slot = 0; flow = 1; dst = 2 } ]);
  raises "Windowed.write" (fun () -> Windowed.write ~path:full ~window:10 [ window ]);
  List.iter
    (fun (name, jsonl, csv) ->
      raises name (fun () ->
          with_temp_file (fun base ->
              let m = Mux.create ~cells:1 ~part_base:base () in
              Mux.note_roster m ~cell:0 ~slot:0 ~gids:[| 0 |];
              Mux.finish m ~n_flows:1 ?jsonl ?csv ())))
    [ ("Mux.finish (jsonl)", Some full, None); ("Mux.finish (csv)", None, Some full) ];
  raises "Artifact.write" (fun () ->
      Artifact.write ~path:full
        (Artifact.v ~horizon:1 ~seed:1 ~seeds:1 ~jobs:1 ~runs:1 ~slots:1
           ~wall_clock_s:0. ~tables:[]));
  raises "Chaos.write_timeline" (fun () ->
      Chaos.write_timeline ~path:full
        [ ("spec", [ { Chaos.slot = 5; fault = Chaos.Cell_crash { cell = 0 } } ]) ]);
  raises "Report.write_html" (fun () ->
      Report.write_html ~path:full ~title:"t"
        [ Report.section ~heading:"h" [] ]);
  raises "Sink.close" (fun () ->
      let sink = Sink.jsonl ~path:full (Trace.header ~n_flows:1 ()) in
      Sink.close sink);
  raises "Journal.create" (fun () ->
      Journal.close (Journal.create ~path:full ~params:[] ()))

(* --- encoding cost: a record is encoded through the writer's own
   buffer, not a fresh 1 KB one --- *)

(* Minor words per [Jsonl.write] of a causality Move record, encoded
   ahead of time so only the writer's work is counted: 61 in the dev and
   release builds.  A fresh 1 KB buffer per record alone would be 129;
   what remains is the encoder's closures and the decimal text of each
   int. *)
let test_write_words () =
  let records =
    Array.init 512 (fun i ->
        Causality.event_to_json
          (Causality.Move
             { slot = 100 * i; flow = i mod 37; src = i mod 8; dst = (i + 3) mod 8;
               verdict = Causality.verdict_deliver }))
  in
  with_temp_file (fun path ->
      let w = Jsonl.create ~path ~schema:"toy/1" [] in
      Array.iter (Jsonl.write w) records;
      let before = Gc.minor_words () in
      Array.iter (Jsonl.write w) records;
      let per_record =
        (Gc.minor_words () -. before) /. float_of_int (Array.length records)
      in
      Jsonl.close w;
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per record (at most 80)" per_record)
        true (per_record <= 80.))

let suite =
  [
    Alcotest.test_case "write reuses the writer's buffer" `Quick
      test_write_words;
    Alcotest.test_case "codec tail rule" `Quick test_tail_rule;
    Alcotest.test_case "every writer's file loads whole" `Quick test_base_files;
    Alcotest.test_case "report dispatches on the schema tag" `Quick
      test_report_dispatch;
    QCheck_alcotest.to_alcotest prop_fuzz_loaders;
    QCheck_alcotest.to_alcotest prop_torn_tail;
    Alcotest.test_case "writers raise on a full device" `Quick test_full_device;
  ]
