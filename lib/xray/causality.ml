module Json = Wfs_util.Json
module Jsonl = Wfs_util.Jsonl
module Sched = Wfs_core.Wireless_sched

let schema = "wfs-causality/1"

type event =
  | Move of { slot : int; flow : int; src : int; dst : int; verdict : string }
  | Rehome of { slot : int; flow : int; dst : int }
  | Crash of { slot : int; cell : int; orphaned : int list }
  | Carry of {
      slot : int;
      flow : int;
      cell : int;
      carried : Sched.carry;
      accepted : Sched.carry;
    }

let verdict_deliver = "deliver"
let verdict_blocked = "blocked"
let verdict_lost = "lost"
let verdict_corrupt = "corrupt"

(* --- JSON codec.  One compact object per event, discriminated by "k". --- *)

let carry_fields prefix (c : Sched.carry) =
  [
    (prefix ^ "lag", Json.of_float_ext c.Sched.lag);
    (prefix ^ "cr", Json.Int c.Sched.credit);
  ]

let event_to_json = function
  | Move { slot; flow; src; dst; verdict } ->
      Json.Obj
        [
          ("k", Json.Str "move");
          ("slot", Json.Int slot);
          ("flow", Json.Int flow);
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("v", Json.Str verdict);
        ]
  | Rehome { slot; flow; dst } ->
      Json.Obj
        [
          ("k", Json.Str "rehome");
          ("slot", Json.Int slot);
          ("flow", Json.Int flow);
          ("dst", Json.Int dst);
        ]
  | Crash { slot; cell; orphaned } ->
      Json.Obj
        [
          ("k", Json.Str "crash");
          ("slot", Json.Int slot);
          ("cell", Json.Int cell);
          ("orphaned", Json.Arr (List.map (fun g -> Json.Int g) orphaned));
        ]
  | Carry { slot; flow; cell; carried; accepted } ->
      Json.Obj
        (("k", Json.Str "carry")
         :: ("slot", Json.Int slot)
         :: ("flow", Json.Int flow)
         :: ("cell", Json.Int cell)
         :: (carry_fields "" carried @ carry_fields "a" accepted))

let carry_of_json prefix v =
  let ( let* ) = Option.bind in
  let* lag = Option.bind (Json.member (prefix ^ "lag") v) Json.to_float_ext in
  let* credit = Option.bind (Json.member (prefix ^ "cr") v) Json.to_int in
  Some { Sched.lag; credit }

let event_of_json v =
  let ( let* ) = Option.bind in
  let* k = Option.bind (Json.member "k" v) Json.to_str in
  let int key = Option.bind (Json.member key v) Json.to_int in
  match k with
  | "move" ->
      let* slot = int "slot" in
      let* flow = int "flow" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* verdict = Option.bind (Json.member "v" v) Json.to_str in
      Some (Move { slot; flow; src; dst; verdict })
  | "rehome" ->
      let* slot = int "slot" in
      let* flow = int "flow" in
      let* dst = int "dst" in
      Some (Rehome { slot; flow; dst })
  | "crash" ->
      let* slot = int "slot" in
      let* cell = int "cell" in
      let* gids = Option.bind (Json.member "orphaned" v) Json.to_list in
      let* orphaned =
        List.fold_left
          (fun acc gv ->
            match acc with
            | None -> None
            | Some acc -> Option.map (fun g -> g :: acc) (Json.to_int gv))
          (Some []) gids
      in
      Some (Crash { slot; cell; orphaned = List.rev orphaned })
  | "carry" ->
      let* slot = int "slot" in
      let* flow = int "flow" in
      let* cell = int "cell" in
      let* carried = carry_of_json "" v in
      let* accepted = carry_of_json "a" v in
      Some (Carry { slot; flow; cell; carried; accepted })
  | _ -> None

let event_to_string e = Json.to_string ~pretty:false (event_to_json e)

let event_of_string line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> event_of_json v

let carry_equal (a : Sched.carry) (b : Sched.carry) =
  Float.compare a.Sched.lag b.Sched.lag = 0 && a.Sched.credit = b.Sched.credit

let event_equal a b =
  match (a, b) with
  | Move a, Move b ->
      a.slot = b.slot && a.flow = b.flow && a.src = b.src && a.dst = b.dst
      && String.equal a.verdict b.verdict
  | Rehome a, Rehome b -> a.slot = b.slot && a.flow = b.flow && a.dst = b.dst
  | Crash a, Crash b ->
      a.slot = b.slot && a.cell = b.cell
      && List.length a.orphaned = List.length b.orphaned
      && List.for_all2 ( = ) a.orphaned b.orphaned
  | Carry a, Carry b ->
      a.slot = b.slot && a.flow = b.flow && a.cell = b.cell
      && carry_equal a.carried b.carried
      && carry_equal a.accepted b.accepted
  | (Move _ | Rehome _ | Crash _ | Carry _), _ -> false

let slot_of = function
  | Move { slot; _ } | Rehome { slot; _ } | Crash { slot; _ }
  | Carry { slot; _ } ->
      slot

(* --- collector --- *)

type t = { mutable rev : event list; mutable n : int }

let create () = { rev = []; n = 0 }

let record t e =
  t.rev <- e :: t.rev;
  t.n <- t.n + 1

let events t = List.rev t.rev
let count t = t.n

(* --- file round-trip: a framed stream with no header fields --- *)

let write ~path events = Jsonl.write_file ~path ~schema [] event_to_json events

let load ~path =
  Jsonl.load ~who:"Causality.load" ~schema
    ~header:(fun _ -> Some ())
    ~record:event_of_json ~path ()
  |> Result.map snd

(* --- per-flow replay helpers --- *)

let journey events ~flow =
  List.filter
    (function
      | Move { flow = f; _ } | Rehome { flow = f; _ } | Carry { flow = f; _ }
        ->
          f = flow
      | Crash _ -> false)
    events

let truncation events ~flow =
  List.fold_left
    (fun (lag, cr) e ->
      match e with
      | Carry { flow = f; carried; accepted; _ } when f = flow ->
          ( lag +. Float.abs (carried.Sched.lag -. accepted.Sched.lag),
            cr + abs (carried.Sched.credit - accepted.Sched.credit) )
      | Move _ | Rehome _ | Crash _ | Carry _ -> (lag, cr))
    (0., 0) events

let flows events =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let note g =
    if not (Hashtbl.mem tbl g) then begin
      Hashtbl.add tbl g ();
      order := g :: !order
    end
  in
  List.iter
    (fun e ->
      match e with
      | Move { flow; _ } | Rehome { flow; _ } | Carry { flow; _ } -> note flow
      | Crash { orphaned; _ } -> List.iter note orphaned)
    events;
  List.sort Int.compare !order
