let header ~schema fields = Json.Obj (("schema", Json.Str schema) :: fields)

let header_fields ~schema v =
  match Option.bind (Json.member "schema" v) Json.to_str with
  | Some s when String.equal s schema -> (
      match v with
      | Json.Obj fields ->
          Some (List.filter (fun (k, _) -> not (String.equal k "schema")) fields)
      | _ -> None)
  | Some _ | None -> None

let decode line = Result.to_option (Json.of_string line)

let schema_of ~path =
  match In_channel.with_open_bin path In_channel.input_line with
  | exception Sys_error _ -> None
  | line ->
      Option.bind (Option.bind line decode) (fun v ->
          Option.bind (Json.member "schema" v) Json.to_str)

(* --- writing: one compact record per line, streamed; the only close on
   the success path is the checked [close_out]. --- *)

(* Each writer encodes its records through a buffer of its own, cleared
   and reused for every record.  Streams are written from several domains
   at once, so a module-level buffer would race. *)
type writer = { oc : out_channel; buf : Buffer.t }

let writer oc = { oc; buf = Buffer.create 256 }

let write_line w line =
  output_string w.oc line;
  output_char w.oc '\n'

let write w v =
  Buffer.clear w.buf;
  Json.to_buffer ~pretty:false w.buf v;
  Buffer.add_char w.buf '\n';
  Buffer.output_buffer w.oc w.buf

let create ~path ~schema fields =
  let w = writer (open_out_bin path) in
  write w (header ~schema fields);
  w

let flush w = Stdlib.flush w.oc
let close w = close_out w.oc

(* [Out_channel.with_open_bin] closes with [close_out_noerr] even on
   success, which would swallow the final flush error. *)
let with_out path f =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let r = f oc in
      close_out oc;
      r)

let torn_tail path =
  In_channel.with_open_bin path (fun ic ->
      let len = In_channel.length ic in
      Int64.compare len 0L > 0
      &&
      (In_channel.seek ic (Int64.pred len);
       not (Option.equal Char.equal (In_channel.input_char ic) (Some '\n'))))

(* A stream that does not end in a newline holds a torn append.  Cut it
   back to its last newline before appending, or the first new record
   would be glued to the fragment and turn a droppable tail into
   corruption before the end.  The stdlib cannot truncate in place, so
   the kept prefix is written to a sibling file that replaces the
   original. *)
let reopen ~path =
  if torn_tail path then begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let keep =
      match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0
    in
    let tmp = path ^ ".cut" in
    with_out tmp (fun oc -> output_substring oc text 0 keep);
    Sys.rename tmp path
  end;
  writer (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)

let with_file ~path ~schema fields f =
  with_out path (fun oc ->
      let w = writer oc in
      write w (header ~schema fields);
      f w)

let write_file ~path ~schema fields encode records =
  with_file ~path ~schema fields (fun w ->
      List.iter (fun r -> write w (encode r)) records)

(* --- reading, under the one tail rule --- *)

let load ~who ~schema ~header ~record ?(check = fun _ _ -> None) ~path () =
  let fail ?(context = []) what =
    Error (Error.v Error.Bad_spec ~who what ~context:(("path", path) :: context))
  in
  let read ic =
    match In_channel.input_line ic with
    | None -> fail "empty stream (no header)"
    | Some line -> (
        match
          Option.bind
            (Option.bind (decode line) (header_fields ~schema))
            header
        with
        | None -> fail ("header is not a " ^ schema ^ " header")
        | Some h ->
            let rec go acc n =
              match In_channel.input_line ic with
              | None -> Ok (h, List.rev acc)
              | Some line -> (
                  let at = [ ("line", string_of_int n) ] in
                  match Option.bind (decode line) record with
                  | None ->
                      (* A torn append can only be the last line. *)
                      if Option.is_none (In_channel.input_line ic) then
                        Ok (h, List.rev acc)
                      else fail "corrupt record before end of stream" ~context:at
                  | Some r -> (
                      match check h r with
                      | None -> go (r :: acc) (n + 1)
                      | Some what -> fail what ~context:at))
            in
            go [] 2)
  in
  match In_channel.with_open_bin path read with
  | result -> result
  | exception Sys_error msg -> fail msg
