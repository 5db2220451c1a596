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
