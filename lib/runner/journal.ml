module Jsonl = Wfs_util.Jsonl

let schema = "wfs-bench/1-journal"

type writer = { out : Jsonl.writer; mutex : Mutex.t }

let create ?(schema = schema) ~path ~params () =
  let out = Jsonl.create ~path ~schema params in
  Jsonl.flush out;
  { out; mutex = Mutex.create () }

let reopen ~path = { out = Jsonl.reopen ~path; mutex = Mutex.create () }

let append w ~key ~value =
  Mutex.lock w.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.mutex)
    (fun () ->
      Jsonl.write w.out (Json.Obj [ ("key", Json.Str key); ("value", value) ]);
      Jsonl.flush w.out)

let close w = Jsonl.close w.out

type contents = {
  params : (string * Json.t) list;
  entries : (string * Json.t) list;
}

let entry_of_json v =
  match (Option.bind (Json.member "key" v) Json.to_str, Json.member "value" v) with
  | Some key, Some value -> Some (key, value)
  | _ -> None

let load ?(schema = schema) ~path () =
  Jsonl.load ~who:"Journal.load" ~schema ~header:Option.some
    ~record:entry_of_json ~path ()
  |> Result.map (fun (params, entries) -> { params; entries })

(* Headers compare as compact JSON after sorting by key: the order a
   driver lists its settings in is not part of what they mean. *)
let params_equal a b =
  let norm l =
    List.sort (fun (k, _) (k', _) -> String.compare k k') l
    |> List.map (fun (k, v) -> (k, Json.to_string ~pretty:false v))
  in
  List.equal
    (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
    (norm a) (norm b)

let resume ?(schema = schema) ~path ~params decode =
  if not (Sys.file_exists path) then
    let decoded = decode [] in
    (decoded, create ~schema ~path ~params ())
  else
    match load ~schema ~path () with
    | Error e -> Wfs_util.Error.raise_ e
    | Ok { params = found; entries } ->
        if not (params_equal found params) then
          Wfs_util.Error.bad_spec ~who:"Journal.resume"
            "journal was written for different settings"
            ~context:
              [
                ("path", path);
                ("journal", Json.to_string ~pretty:false (Json.Obj found));
                ("run", Json.to_string ~pretty:false (Json.Obj params));
              ];
        let decoded = decode entries in
        (decoded, reopen ~path)
