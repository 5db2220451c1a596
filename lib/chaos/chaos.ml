module Error = Wfs_util.Error
module Rng = Wfs_util.Rng
module Json = Wfs_util.Json
module Jsonl = Wfs_util.Jsonl
module Instruments = Wfs_obs.Instruments
module Spec = Wfs_runner.Spec

let who = "Wfs_chaos"

type fault =
  | Cell_crash of { cell : int }
  | Cell_recover of { cell : int }
  | Handoff_lost of { flow : int; src : int; dst : int }
  | Handoff_corrupt of { flow : int; src : int; dst : int }
  | Handoff_blocked of { flow : int; src : int; dst : int }
  | Blackout of { cell : int; until : int }
  | Worker_fault of { cell : int; persistent : bool }

type event = { slot : int; fault : fault }

(* Armed-fault cell: 0 = clean, 1 = transient, 2 = persistent.  Atomics
   because the owning worker domain consumes the flag ({!inject}) while
   the coordinator arms/disarms it between epochs. *)
let clean = 0
let transient = 1
let persistent = 2

type t = {
  plan : Spec.faults;
  rng : Rng.t;
  cells : int;
  down : bool array;
  blackout_until : int array;
  injected : int Atomic.t array;
  mutable timeline_rev : event list;
  registry : Instruments.t;
  c_crashes : Instruments.counter;
  c_recoveries : Instruments.counter;
  c_worker_faults : Instruments.counter;
  c_blackouts : Instruments.counter;
  c_rehomed : Instruments.counter;
  c_lost : Instruments.counter;
  c_corrupt : Instruments.counter;
  c_blocked : Instruments.counter;
  g_cells_down : Instruments.gauge;
  g_orphaned : Instruments.gauge;
  g_lost_lag : Instruments.gauge;
  g_lost_credit : Instruments.gauge;
  g_lost_packets : Instruments.gauge;
}

let create ~seed ~cells plan =
  if cells < 1 then Error.invalidf "Chaos.create" "cells must be >= 1, got %d" cells;
  let registry = Instruments.create () in
  {
    plan;
    rng = Rng.create seed;
    cells;
    down = Array.make cells false;
    blackout_until = Array.make cells 0;
    injected = Array.init cells (fun _ -> Atomic.make clean);
    timeline_rev = [];
    registry;
    c_crashes = Instruments.counter registry "chaos.crashes";
    c_recoveries = Instruments.counter registry "chaos.recoveries";
    c_worker_faults = Instruments.counter registry "chaos.worker_faults";
    c_blackouts = Instruments.counter registry "chaos.blackouts";
    c_rehomed = Instruments.counter registry "chaos.rehomed";
    c_lost = Instruments.counter registry "chaos.lost_handoffs";
    c_corrupt = Instruments.counter registry "chaos.corrupt_handoffs";
    c_blocked = Instruments.counter registry "chaos.blocked_handoffs";
    g_cells_down = Instruments.gauge registry "chaos.cells_down";
    g_orphaned = Instruments.gauge registry "chaos.orphaned";
    g_lost_lag = Instruments.gauge ~policy:Instruments.Sum registry "chaos.lost_lag";
    g_lost_credit =
      Instruments.gauge ~policy:Instruments.Sum registry "chaos.lost_credit";
    g_lost_packets =
      Instruments.gauge ~policy:Instruments.Sum registry "chaos.lost_packets";
  }

let plan t = t.plan
let record t ~slot fault = t.timeline_rev <- { slot; fault } :: t.timeline_rev

(* --- barrier draws --- *)

let draw_recoveries t ~slot =
  if t.plan.recover <= 0. then []
  else begin
    let recovered = ref [] in
    for c = 0 to t.cells - 1 do
      if t.down.(c) && Rng.bernoulli t.rng t.plan.recover then begin
        t.down.(c) <- false;
        Instruments.incr t.c_recoveries;
        record t ~slot (Cell_recover { cell = c });
        recovered := c :: !recovered
      end
    done;
    List.rev !recovered
  end

let draw_crashes t ~slot =
  if t.plan.crash <= 0. then []
  else begin
    let crashed = ref [] in
    for c = 0 to t.cells - 1 do
      if (not t.down.(c)) && Rng.bernoulli t.rng t.plan.crash then begin
        t.down.(c) <- true;
        Instruments.incr t.c_crashes;
        record t ~slot (Cell_crash { cell = c });
        crashed := c :: !crashed
      end
    done;
    List.rev !crashed
  end

let draw_blackouts t ~slot =
  if t.plan.blackout > 0. then
    for c = 0 to t.cells - 1 do
      if (not t.down.(c)) && Rng.bernoulli t.rng t.plan.blackout then begin
        let until = slot + t.plan.blackout_len in
        t.blackout_until.(c) <- until;
        Instruments.incr t.c_blackouts;
        record t ~slot (Blackout { cell = c; until })
      end
    done

let arm_worker_faults t ~slot =
  ignore slot;
  if t.plan.exn > 0. then
    for c = 0 to t.cells - 1 do
      if (not t.down.(c)) && Rng.bernoulli t.rng t.plan.exn then
        let kind =
          if Rng.bernoulli t.rng t.plan.persist then persistent else transient
        in
        Atomic.set t.injected.(c) kind
    done

type verdict = Deliver | Blocked | Lost | Corrupt

let handoff_verdict t ~slot ~flow ~src ~dst =
  if t.down.(dst) then begin
    (* Liveness is already decided, so refusing without a draw keeps the
       stream aligned with runs where this move went elsewhere. *)
    Instruments.incr t.c_blocked;
    record t ~slot (Handoff_blocked { flow; src; dst });
    Blocked
  end
  else if t.plan.lose > 0. && Rng.bernoulli t.rng t.plan.lose then begin
    Instruments.incr t.c_lost;
    record t ~slot (Handoff_lost { flow; src; dst });
    Lost
  end
  else if t.plan.corrupt > 0. && Rng.bernoulli t.rng t.plan.corrupt then begin
    Instruments.incr t.c_corrupt;
    record t ~slot (Handoff_corrupt { flow; src; dst });
    Corrupt
  end
  else Deliver

let down_count t =
  let n = ref 0 in
  Array.iter (fun d -> if d then incr n) t.down;
  !n

let rehome_target t =
  let up = t.cells - down_count t in
  if up = 0 then None
  else begin
    let k = ref (Rng.int t.rng up) in
    let target = ref 0 in
    (try
       for c = 0 to t.cells - 1 do
         if not t.down.(c) then
           if !k = 0 then begin
             target := c;
             raise Exit
           end
           else decr k
       done
     with Exit -> ());
    Some !target
  end

(* --- state queries --- *)

let is_down t ~cell = t.down.(cell)
let blacked_out t ~cell ~slot = slot < t.blackout_until.(cell)

(* --- worker-side injection --- *)

let inject t ~cell =
  let flag = t.injected.(cell) in
  match Atomic.get flag with
  | 1 ->
      Atomic.set flag clean;
      Error.sim_fault ~who "injected worker fault"
        ~context:
          [ ("chaos-fault", "transient"); ("cell", string_of_int cell) ]
  | 2 ->
      Error.sim_fault ~who "injected worker fault"
        ~context:
          [ ("chaos-fault", "persistent"); ("cell", string_of_int cell) ]
  | _ -> ()

let injected_fault (e : Error.t) =
  (match e.kind with Error.Sim_fault -> true | _ -> false)
  && String.equal e.who who
  && Option.is_some (List.assoc_opt "chaos-fault" e.context)

let retryable (e : Error.t) =
  (match e.kind with Error.Sim_fault -> true | _ -> false)
  && String.equal e.who who
  && (match List.assoc_opt "chaos-fault" e.context with
     | Some v -> String.equal v "transient"
     | None -> false)

let note_worker_fault t ~slot ~cell =
  t.down.(cell) <- true;
  Atomic.set t.injected.(cell) clean;
  Instruments.incr t.c_worker_faults;
  record t ~slot (Worker_fault { cell; persistent = true })

(* --- carried-state corruption --- *)

let carry_digest (c : Wfs_core.Wireless_sched.carry) =
  let mix h x = ((h lsl 7) - h) lxor x in
  let h = mix 0x5deece66d (Int64.to_int (Int64.bits_of_float c.lag)) in
  mix h c.credit

let mangle_carry (c : Wfs_core.Wireless_sched.carry) =
  (* Affine, so even carry_zero moves to a distinct point; the lag flip
     keeps the value finite and representable. *)
  { Wfs_core.Wireless_sched.lag = (-1.0 *. c.lag) -. 1.0e6;
    credit = -c.credit - 1_000_003 }

(* --- telemetry --- *)

let note_lost_carry t ~lag ~credit ~packets =
  Instruments.set t.g_lost_lag (Float.abs lag);
  Instruments.set t.g_lost_credit (Float.of_int (abs credit));
  Instruments.set t.g_lost_packets (Float.of_int packets)

let note_rehomed t = Instruments.incr t.c_rehomed

let note_gauges t ~orphaned =
  Instruments.set t.g_cells_down (Float.of_int (down_count t));
  Instruments.set t.g_orphaned (Float.of_int orphaned)

let instruments t = t.registry
let timeline t = List.rev t.timeline_rev

(* --- serialization --- *)

let fault_to_string = function
  | Cell_crash { cell } -> Printf.sprintf "crash cell=%d" cell
  | Cell_recover { cell } -> Printf.sprintf "recover cell=%d" cell
  | Handoff_lost { flow; src; dst } ->
      Printf.sprintf "lost-handoff flow=%d %d->%d" flow src dst
  | Handoff_corrupt { flow; src; dst } ->
      Printf.sprintf "corrupt-handoff flow=%d %d->%d" flow src dst
  | Handoff_blocked { flow; src; dst } ->
      Printf.sprintf "blocked-handoff flow=%d %d->%d" flow src dst
  | Blackout { cell; until } ->
      Printf.sprintf "blackout cell=%d until=%d" cell until
  | Worker_fault { cell; persistent } ->
      Printf.sprintf "worker-fault cell=%d %s" cell
        (if persistent then "persistent" else "transient")

let fault_kind = function
  | Cell_crash _ -> "crash"
  | Cell_recover _ -> "recover"
  | Handoff_lost _ -> "lost"
  | Handoff_corrupt _ -> "corrupt"
  | Handoff_blocked _ -> "blocked"
  | Blackout _ -> "blackout"
  | Worker_fault _ -> "worker"

let fault_to_json f =
  let fields =
    match f with
    | Cell_crash { cell } | Cell_recover { cell } -> [ ("cell", Json.Int cell) ]
    | Handoff_lost { flow; src; dst }
    | Handoff_corrupt { flow; src; dst }
    | Handoff_blocked { flow; src; dst } ->
        [ ("flow", Json.Int flow); ("src", Json.Int src); ("dst", Json.Int dst) ]
    | Blackout { cell; until } ->
        [ ("cell", Json.Int cell); ("until", Json.Int until) ]
    | Worker_fault { cell; persistent } ->
        [ ("cell", Json.Int cell); ("persistent", Json.Bool persistent) ]
  in
  Json.Obj (("kind", Json.Str (fault_kind f)) :: fields)

let fault_of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let* kind = Option.bind (Json.member "kind" j) Json.to_str in
  match kind with
  | "crash" ->
      let* cell = int "cell" in
      Some (Cell_crash { cell })
  | "recover" ->
      let* cell = int "cell" in
      Some (Cell_recover { cell })
  | "lost" | "corrupt" | "blocked" ->
      let* flow = int "flow" in
      let* src = int "src" in
      let* dst = int "dst" in
      Some
        (match kind with
        | "lost" -> Handoff_lost { flow; src; dst }
        | "corrupt" -> Handoff_corrupt { flow; src; dst }
        | _ -> Handoff_blocked { flow; src; dst })
  | "blackout" ->
      let* cell = int "cell" in
      let* until = int "until" in
      Some (Blackout { cell; until })
  | "worker" ->
      let* cell = int "cell" in
      let* persistent =
        match Json.member "persistent" j with
        | Some (Json.Bool b) -> Some b
        | _ -> None
      in
      Some (Worker_fault { cell; persistent })
  | _ -> None

let event_to_json { slot; fault } =
  Json.Obj [ ("slot", Json.Int slot); ("fault", fault_to_json fault) ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let* slot = Option.bind (Json.member "slot" j) Json.to_int in
  let* fault = Option.bind (Json.member "fault" j) fault_of_json in
  Some { slot; fault }

let fault_equal a b =
  match (a, b) with
  | Cell_crash { cell = a }, Cell_crash { cell = b }
  | Cell_recover { cell = a }, Cell_recover { cell = b } ->
      Int.equal a b
  | ( Handoff_lost { flow; src; dst },
      Handoff_lost { flow = flow'; src = src'; dst = dst' } )
  | ( Handoff_corrupt { flow; src; dst },
      Handoff_corrupt { flow = flow'; src = src'; dst = dst' } )
  | ( Handoff_blocked { flow; src; dst },
      Handoff_blocked { flow = flow'; src = src'; dst = dst' } ) ->
      Int.equal flow flow' && Int.equal src src' && Int.equal dst dst'
  | Blackout { cell; until }, Blackout { cell = cell'; until = until' } ->
      Int.equal cell cell' && Int.equal until until'
  | ( Worker_fault { cell; persistent },
      Worker_fault { cell = cell'; persistent = persistent' } ) ->
      Int.equal cell cell' && Bool.equal persistent persistent'
  | ( ( Cell_crash _ | Cell_recover _ | Handoff_lost _ | Handoff_corrupt _
      | Handoff_blocked _ | Blackout _ | Worker_fault _ ),
      _ ) ->
      false

let event_equal a b = Int.equal a.slot b.slot && fault_equal a.fault b.fault

(* --- the fault timeline file: a framed stream of (spec, event) records,
   chronological within each spec --- *)

let timeline_schema = "wfs-chaos/1-timeline"

let timeline_entry_of_json j =
  let ( let* ) = Option.bind in
  let* spec = Option.bind (Json.member "spec" j) Json.to_str in
  let* event = Option.bind (Json.member "event" j) event_of_json in
  Some (spec, event)

let write_timeline ~path runs =
  Jsonl.with_file ~path ~schema:timeline_schema [] (fun w ->
      List.iter
        (fun (spec, events) ->
          List.iter
            (fun ev ->
              Jsonl.write w
                (Json.Obj [ ("spec", Json.Str spec); ("event", event_to_json ev) ]))
            events)
        runs)

let timeline_to_json t = Json.Arr (List.map event_to_json (timeline t))

let timeline_context t =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let recent = List.rev (take 8 t.timeline_rev) in
  let rendered =
    List.map
      (fun { slot; fault } ->
        Printf.sprintf "slot %d: %s" slot (fault_to_string fault))
      recent
  in
  [
    ("chaos-faults", string_of_int (List.length t.timeline_rev));
    ("chaos-timeline", String.concat "; " rendered);
  ]
