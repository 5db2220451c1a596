(* Offline observability report: load any mix of the repo's on-disk
   artifacts — wfs-bench/1 metrics/bench artifacts, wfs-trace/1 single-cell
   traces, wfs-xray-trace/1 merged topology timelines, wfs-causality/1
   flow-journey logs, wfs-windows/1 aggregation streams and
   wfs-chaos/1-timeline fault logs — and render one dashboard, as aligned
   text on stdout and optionally as a self-contained HTML page.  Each file
   is recognized by its schema tag; sections render in argument order.

   Examples:
     wfs_report metrics.json bench.json
     wfs_report topo.jsonl flows.jsonl win.jsonl --html dashboard.html
     wfs_report cell.jsonl faults.jsonl *)

module Report = Wfs_xray.Report

let load path =
  match Report.of_file ~path with
  | Ok s -> s
  | Error e ->
      Printf.eprintf "wfs_report: %s: %s\n" path (Wfs_util.Error.to_string e);
      exit 2

let main title files html quiet =
  if files = [] then begin
    Printf.eprintf "wfs_report: nothing to report; give at least one FILE\n";
    exit 2
  end;
  let sections = List.map load files in
  if not quiet then Report.print sections;
  Option.iter (fun path -> Report.write_html ~path ~title sections) html

open Cmdliner

let title_arg =
  Arg.(
    value & opt string "wfs report"
    & info [ "title" ] ~docv:"STR" ~doc:"Dashboard title (HTML page header).")

let files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "An artifact to report on, recognized by its schema tag: a \
           wfs-bench/1 JSON artifact ($(b,wfs_bench) output or $(b,wfs_sim \
           --metrics-out)), a wfs-trace/1 trace ($(b,wfs_sim --trace-out)), \
           a wfs-xray-trace/1 topology timeline ($(b,wfs_sim --cells K \
           --trace-out)), a wfs-causality/1 log ($(b,wfs_sim --causality)), \
           a wfs-windows/1 stream ($(b,wfs_sim --windows)) or a \
           wfs-chaos/1-timeline fault log ($(b,wfs_sim --fault-timeline)).  \
           An unknown schema exits with status 2.")

let html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE"
        ~doc:
          "Also write the dashboard as a self-contained HTML page (inline \
           CSS, no external assets) to FILE.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress the text dashboard on stdout.")

let cmd =
  let doc = "Offline dashboards from wfs observability artifacts" in
  Cmd.v
    (Cmd.info "wfs_report" ~doc)
    Term.(const main $ title_arg $ files_arg $ html_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
