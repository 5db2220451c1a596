type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  let ncols = List.length t.columns in
  let rec fit i = function
    | [] -> if i < ncols then "" :: fit (i + 1) [] else []
    | c :: rest -> if i >= ncols then [] else c :: fit (i + 1) rest
  in
  t.rows <- fit 0 cells :: t.rows

let title t = t.title
let columns t = t.columns
let rows t = List.rev t.rows

let cell_of_float ?(decimals = 2) x =
  if Float.is_nan x then "-"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" decimals x

let cell_of_replicas ?decimals replicas f =
  match replicas with
  | [ r ] -> cell_of_float ?decimals (f r)
  | replicas ->
      let s = Stats.Summary.create () in
      List.iter (fun r -> Stats.Summary.add s (f r)) replicas;
      Printf.sprintf "%s±%s"
        (cell_of_float ?decimals (Stats.Summary.mean s))
        (cell_of_float ?decimals (Stats.Summary.ci95 s))

let add_float_row t ~label ?decimals values =
  add_row t (label :: List.map (cell_of_float ?decimals) values)

let render t =
  let all = t.columns :: List.rev t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then
            widths.(i) <- String.length cell)
        row)
    all;
  let pad i cell = Printf.sprintf "%-*s" widths.(i) cell in
  let line row = "| " ^ String.concat " | " (List.mapi pad row) ^ " |" in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf

(* lint: allow R8 -- the one sanctioned convenience: [print] only echoes [render]; binaries still own their channels *)
let print t = print_string (render t)
