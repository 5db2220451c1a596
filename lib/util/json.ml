type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let float_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else begin
    let short = Printf.sprintf "%.12g" x in
    (* lint: allow R3 -- exact round-trip probe: picks the shortest decimal that restores the bits *)
    if float_of_string short = x then short else Printf.sprintf "%.17g" x
  end

(* --- writer --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_buffer ?(pretty = true) buf v =
  let indent depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> Buffer.add_string buf (float_to_string x)
    | Str s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            go (depth + 1) item)
          items;
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) item)
          fields;
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?pretty v =
  let buf = Buffer.create 1024 in
  to_buffer ?pretty buf v;
  Buffer.contents buf

(* --- reader --- *)

exception Bad of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.equal (String.sub s !pos m) word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> begin
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 > n then fail "short \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code when code < 0x80 ->
                    (* ASCII only: the writer never emits higher escapes. *)
                    Buffer.add_char buf (Char.chr code)
                | Some _ -> fail "non-ASCII \\u escape unsupported"
                | None -> fail "bad \\u escape")
            | _ -> fail "unknown escape");
            go ()
          end
        | c -> Buffer.add_char buf c; go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let tok = String.sub s start (!pos - start) in
    let is_floaty =
      String.exists
        (fun c -> match c with '.' | 'e' | 'E' -> true | _ -> false)
        tok
    in
    if is_floaty then
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if Option.equal Char.equal (peek ()) (Some '}') then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((key, v) :: acc)
            | Some '}' -> advance (); List.rev ((key, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if Option.equal Char.equal (peek ()) (Some ']') then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (items [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* --- accessors --- *)

let member key v =
  match v with
  | Obj fields ->
      Option.map snd
        (List.find_opt (fun (k, _) -> String.equal k key) fields)
  | _ -> None

let to_int v = match v with Int i -> Some i | _ -> None

let to_float v =
  match v with Float x -> Some x | Int i -> Some (float_of_int i) | _ -> None

let to_str v = match v with Str s -> Some s | _ -> None
let to_list v = match v with Arr items -> Some items | _ -> None

(* --- non-finite-safe float encoding ---

   JSON has no nan/inf literals, so serializers that may see them (empty
   Summary min/max, unbounded slack) encode non-finite values as the
   strings "nan"/"inf"/"-inf" and decode them back exactly. *)

let of_float_ext x =
  if Float.is_finite x then Float x
  else if Float.is_nan x then Str "nan"
  else if x > 0. then Str "inf"
  else Str "-inf"

let to_float_ext v =
  match v with
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | Str "nan" -> Some nan
  | Str "inf" -> Some infinity
  | Str "-inf" -> Some neg_infinity
  | _ -> None
