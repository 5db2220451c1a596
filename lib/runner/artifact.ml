type table = {
  title : string;
  columns : string list;
  rows : string list list;
}

type t = {
  schema : string;
  horizon : int;
  seed : int;
  seeds : int;
  jobs : int;
  runs : int;
  slots : int;
  wall_clock_s : float;
  slots_per_sec : float;
  tables : table list;
}

let table_of t =
  {
    title = Wfs_util.Tablefmt.title t;
    columns = Wfs_util.Tablefmt.columns t;
    rows = Wfs_util.Tablefmt.rows t;
  }

let schema_version = "wfs-bench/1"

let v ~horizon ~seed ~seeds ~jobs ~runs ~slots ~wall_clock_s ~tables =
  {
    schema = schema_version;
    horizon;
    seed;
    seeds;
    jobs;
    runs;
    slots;
    wall_clock_s;
    slots_per_sec =
      (if wall_clock_s > 0. then float_of_int slots /. wall_clock_s else 0.);
    tables;
  }

let table_to_json tb =
  Json.Obj
    [
      ("title", Json.Str tb.title);
      ("columns", Json.Arr (List.map (fun c -> Json.Str c) tb.columns));
      ( "rows",
        Json.Arr
          (List.map
             (fun row -> Json.Arr (List.map (fun c -> Json.Str c) row))
             tb.rows) );
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str t.schema);
      ("horizon", Json.Int t.horizon);
      ("seed", Json.Int t.seed);
      ("seeds", Json.Int t.seeds);
      ("jobs", Json.Int t.jobs);
      ("runs", Json.Int t.runs);
      ("slots", Json.Int t.slots);
      ("wall_clock_s", Json.Float t.wall_clock_s);
      ("slots_per_sec", Json.Float t.slots_per_sec);
      ("tables", Json.Arr (List.map table_to_json t.tables));
    ]

(* --- decoding --- *)

let ( let* ) r f = Result.bind r f

let field name decode j =
  match Option.bind (Json.member name j) decode with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "artifact: missing or bad field %S" name)

let str_list j =
  Option.bind (Json.to_list j) (fun items ->
      let strs = List.filter_map Json.to_str items in
      if List.compare_lengths strs items = 0 then Some strs else None)

let table_of_json j =
  let* title = field "title" Json.to_str j in
  let* columns = field "columns" str_list j in
  let* rows =
    field "rows"
      (fun j ->
        Option.bind (Json.to_list j) (fun items ->
            let rows = List.filter_map str_list items in
            if List.compare_lengths rows items = 0 then Some rows else None))
      j
  in
  Ok { title; columns; rows }

let rec tables_of_json acc items =
  match items with
  | [] -> Ok (List.rev acc)
  | j :: rest ->
      let* tb = table_of_json j in
      tables_of_json (tb :: acc) rest

let of_json j =
  let* schema = field "schema" Json.to_str j in
  if not (String.equal schema schema_version) then
    Error
      (Printf.sprintf "artifact: unknown schema %S (expected %S)" schema
         schema_version)
  else
    let* horizon = field "horizon" Json.to_int j in
    let* seed = field "seed" Json.to_int j in
    let* seeds = field "seeds" Json.to_int j in
    let* jobs = field "jobs" Json.to_int j in
    let* runs = field "runs" Json.to_int j in
    let* slots = field "slots" Json.to_int j in
    let* wall_clock_s = field "wall_clock_s" Json.to_float j in
    let* slots_per_sec = field "slots_per_sec" Json.to_float j in
    let* tables = Result.bind (field "tables" Json.to_list j) (tables_of_json []) in
    Ok
      {
        schema;
        horizon;
        seed;
        seeds;
        jobs;
        runs;
        slots;
        wall_clock_s;
        slots_per_sec;
        tables;
      }

let write ~path t =
  Wfs_util.Jsonl.with_out path (fun oc ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.bind (Json.of_string text) of_json

let table_equal a b =
  String.equal a.title b.title
  && List.equal String.equal a.columns b.columns
  && List.equal (List.equal String.equal) a.rows b.rows

let equal a b =
  String.equal a.schema b.schema
  && Int.equal a.horizon b.horizon
  && Int.equal a.seed b.seed
  && Int.equal a.seeds b.seeds
  && Int.equal a.jobs b.jobs
  && Int.equal a.runs b.runs
  && Int.equal a.slots b.slots
  && Float.equal a.wall_clock_s b.wall_clock_s
  && Float.equal a.slots_per_sec b.slots_per_sec
  && List.equal table_equal a.tables b.tables
