module Journal = Wfs_runner.Journal
module Error = Wfs_util.Error
module Json = Wfs_util.Json

let schema = "wfs-bench/1-topo-journal"

type writer = Journal.writer

let create ~path ~params = Journal.create ~schema ~path ~params ()
let reopen ~path = Journal.reopen ~path
let close = Journal.close
let snapshot_key ~spec ~slot = Printf.sprintf "%s #epoch:%d" spec slot
let result_key ~spec = spec ^ " #result"

let append_snapshot w ~spec ~slot value =
  Journal.append w ~key:(snapshot_key ~spec ~slot) ~value

let append_result w ~spec value =
  Journal.append w ~key:(result_key ~spec) ~value

type contents = {
  params : (string * Json.t) list;
  snapshots : (string * (int * Json.t) list) list;
  results : (string * Json.t) list;
}

(* Spec strings never contain '#' (see the Spec grammar), so the last
   " #" splits the spec from the entry tag unambiguously. *)
let parse_key key =
  match String.rindex_opt key '#' with
  | Some i when i >= 1 && Char.equal key.[i - 1] ' ' -> (
      let spec = String.sub key 0 (i - 1) in
      let tag = String.sub key i (String.length key - i) in
      if String.equal tag "#result" then Some (`Result spec)
      else if
        String.length tag > 7 && String.equal (String.sub tag 0 7) "#epoch:"
      then
        match int_of_string_opt (String.sub tag 7 (String.length tag - 7)) with
        | Some slot -> Some (`Snapshot (spec, slot))
        | None -> None
      else None)
  | Some _ | None -> None

let index ~path ~params entries =
  let snap_tbl = Hashtbl.create 64 in
  let res_tbl = Hashtbl.create 16 in
  let seen_spec = Hashtbl.create 16 in
  let spec_order = ref [] in
  let note_spec s =
    if not (Hashtbl.mem seen_spec s) then begin
      Hashtbl.add seen_spec s ();
      spec_order := s :: !spec_order
    end
  in
  let bad = ref None in
  List.iter
    (fun (key, v) ->
      if Option.is_none !bad then
        match parse_key key with
        | Some (`Snapshot (spec, slot)) ->
            note_spec spec;
            Hashtbl.replace snap_tbl (spec, slot) v
        | Some (`Result spec) ->
            note_spec spec;
            Hashtbl.replace res_tbl spec v
        | None -> bad := Some key)
    entries;
  match !bad with
  | Some key ->
      Error
        (Error.v Error.Bad_spec ~who:"Topo_journal.load"
           "unrecognized topo-journal key"
           ~context:[ ("path", path); ("key", key) ])
  | None ->
      let specs = List.rev !spec_order in
      let snapshots =
        List.map
          (fun s ->
            let slots =
              (* lint: allow R1 -- bindings are sorted by slot immediately below, so hash order never escapes *)
              Hashtbl.fold (* analyze: allow A1 -- hash order is erased by the Int.compare sort below before anything reads the list *)
                (fun (s', slot) v acc ->
                  if String.equal s s' then (slot, v) :: acc else acc)
                snap_tbl []
            in
            ( s,
              List.sort (fun (a, _) (b, _) -> Int.compare a b) slots ))
          specs
      in
      let results =
        List.filter_map
          (fun s ->
            Option.map (fun v -> (s, v)) (Hashtbl.find_opt res_tbl s))
          specs
      in
      Ok { params; snapshots; results }

let load ~path =
  Result.bind (Journal.load ~schema ~path ()) (fun { Journal.params; entries } ->
      index ~path ~params entries)

let resume ~path ~params =
  Journal.resume ~schema ~path ~params (fun entries ->
      match index ~path ~params entries with
      | Ok contents -> contents
      | Error e -> Error.raise_ e)

let find_snapshot contents ~spec ~slot =
  Option.bind
    (List.find_opt (fun (s, _) -> String.equal s spec) contents.snapshots)
    (fun (_, slots) ->
      Option.map snd (List.find_opt (fun (sl, _) -> Int.equal sl slot) slots))

let find_result contents ~spec =
  Option.map snd
    (List.find_opt (fun (s, _) -> String.equal s spec) contents.results)
