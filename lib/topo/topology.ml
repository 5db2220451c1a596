module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Pool = Wfs_runner.Pool
module Metrics = Wfs_core.Metrics
module Instruments = Wfs_obs.Instruments
module Error = Wfs_util.Error
module Json = Wfs_util.Json
module Sim = Wfs_core.Simulator
module Channel = Wfs_channel.Channel
module Sched = Wfs_core.Wireless_sched
module Chaos = Wfs_chaos.Chaos
module Causality = Wfs_xray.Causality

type t = {
  cells : Cell.t array;
  n_flows : int;
  epoch : int;
  horizon : int;
  histograms : bool;
  mobility : Mobility.t;
  chaos : Chaos.t option;
  causality : Causality.t option;
      (* flow-journey recorder; every record happens at the sequential
         barrier, in draw order, so the log is jobs-invariant *)
  flow_weights : float array;  (* gid -> the flow's rate weight r_i *)
  homes : int array;  (* global flow id -> current cell *)
  orphans : (Cell.parcel * int) option array;
      (* gid -> (parcel, orphaned-at slot) for flows whose home cell
         crashed; [homes] keeps pointing at the dead cell until re-home *)
  mutable moves : int;
  mutable result : Metrics.t option;
}

let note_event t e =
  match t.causality with Some c -> Causality.record c e | None -> ()

let verdict_name = function
  | Chaos.Deliver -> Causality.verdict_deliver
  | Chaos.Blocked -> Causality.verdict_blocked
  | Chaos.Lost -> Causality.verdict_lost
  | Chaos.Corrupt -> Causality.verdict_corrupt

(* A large odd stride keeps per-cell seed sequences disjoint from the
   consecutive-seed convention of Exec.replicate. *)
let cell_seed ~seed ~cell = seed + (cell * 1_000_003)

let of_spec ?credit_limit ?debit_limit ?histograms ?invariants ?fast_path
    ?tap ?causality (spec : Spec.t) =
  let topo =
    match spec.topo with
    | Some tp -> tp
    | None ->
        Error.invalid "Topology.of_spec" "spec has no topology clause"
  in
  let entry = Wfs_core.Registry.get spec.sched in
  let rosters =
    Array.init topo.Spec.cells (fun c ->
        Exec.setups_of (Spec.with_seed (cell_seed ~seed:spec.seed ~cell:c) spec))
  in
  let n_flows = Array.fold_left (fun n r -> n + Array.length r) 0 rosters in
  let offsets = Array.make topo.Spec.cells 0 in
  for c = 1 to topo.Spec.cells - 1 do
    offsets.(c) <- offsets.(c - 1) + Array.length rosters.(c - 1)
  done;
  let homes = Array.make n_flows 0 in
  let flow_weights = Array.make n_flows 1. in
  Array.iteri
    (fun c roster ->
      for i = 0 to Array.length roster - 1 do
        homes.(offsets.(c) + i) <- c;
        flow_weights.(offsets.(c) + i) <-
          roster.(i).Sim.flow.Wfs_core.Params.weight
      done)
    rosters;
  let chaos =
    match topo.Spec.faults with
    | Some plan when Spec.faults_active plan ->
        (* the chaos stream sits one derived seed past mobility's, in the
           same per-cell namespace *)
        Some
          (Chaos.create
             ~seed:(cell_seed ~seed:spec.seed ~cell:(topo.Spec.cells + 1))
             ~cells:topo.Spec.cells plan)
    | Some _ | None -> None
  in
  (* Blackout overlay: only a plan with a positive blackout rate wraps the
     member channels (the wrapper costs every channel its [is_static] fast
     path, and an inert overlay must not).  The wrapper advances the
     underlying channel every slot — its stream stays aligned with the
     fault-free run — then overrides the observed state to Bad while the
     flow's current cell is blacked out.  [homes] and the blackout table
     are written only at sequential barriers, so worker-domain reads here
     are race-free. *)
  (match chaos with
  | Some ch when (Chaos.plan ch).Spec.blackout > 0. ->
      Array.iteri
        (fun c roster ->
          Array.iteri
            (fun i (setup : Sim.flow_setup) ->
              let gid = offsets.(c) + i in
              let underlying = setup.channel in
              let wrapped =
                Channel.make
                  ~label:(Channel.label underlying ^ "+blackout")
                  ~initial:(Channel.previous_state underlying)
                  (fun slot ->
                    let st = Channel.advance underlying ~slot in
                    if Chaos.blacked_out ch ~cell:homes.(gid) ~slot then
                      Channel.Bad
                    else st)
              in
              roster.(i) <- { setup with Sim.channel = wrapped })
            roster)
        rosters
  | Some _ | None -> ());
  let cells =
    Array.mapi
      (fun c roster ->
        let members =
          Array.to_list
            (Array.mapi
               (fun i setup -> { Cell.gid = offsets.(c) + i; setup })
               roster)
        in
        Cell.create ?credit_limit ?debit_limit ?histograms ?invariants
          ?fast_path ?tap ~id:c ~sched:entry ~horizon:spec.horizon members)
      rosters
  in
  {
    cells;
    n_flows;
    epoch = topo.Spec.epoch;
    horizon = spec.horizon;
    histograms = Option.value histograms ~default:false;
    mobility =
      (* the next derived seed after the last cell's: same namespace,
         never colliding with a cell's scenario streams *)
      Mobility.create
        ~seed:(cell_seed ~seed:spec.seed ~cell:topo.Spec.cells)
        ~cells:topo.Spec.cells ~rate:topo.Spec.mobility;
    chaos;
    causality;
    flow_weights;
    homes;
    orphans = Array.make n_flows None;
    moves = 0;
    result = None;
  }

let n_cells t = Array.length t.cells
let n_flows t = t.n_flows
let weights t = Array.copy t.flow_weights
let homes t = Array.copy t.homes
let handoffs t = t.moves
let chaos_active t = Option.is_some t.chaos
let chaos_instruments t = Option.map Chaos.instruments t.chaos

let fault_timeline t =
  match t.chaos with Some chaos -> Chaos.timeline chaos | None -> []

let orphaned t =
  let gids = ref [] in
  for gid = t.n_flows - 1 downto 0 do
    match t.orphans.(gid) with
    | Some _ -> gids := gid :: !gids
    | None -> ()
  done;
  !gids

let orphan_count t =
  Array.fold_left
    (fun n o -> match o with Some _ -> n + 1 | None -> n)
    0 t.orphans

(* Crash a live cell: bank its session's metrics, serialize every member
   out, and park the parcels as orphans.  Their carries travel with them —
   a crash displaces compensation state, it does not destroy it. *)
let crash_cell t ~slot c =
  let parcels = Cell.dissolve t.cells.(c) in
  List.iter
    (fun p -> t.orphans.(p.Cell.member.Cell.gid) <- Some (p, slot))
    parcels;
  note_event t
    (Causality.Crash
       {
         slot;
         cell = c;
         orphaned = List.map (fun p -> p.Cell.member.Cell.gid) parcels;
       })

(* One barrier: draw mobility for every flow in ascending global id (the
   stream discipline {!Mobility} documents), then dissolve the affected
   cells, re-home the movers, and rebuild.  Strictly sequential — this is
   what keeps multi-cell runs byte-identical across [--jobs].

   With a chaos engine, the same pass also applies transit verdicts to
   the drawn moves and re-homes eligible crash orphans.  Orphaned flows
   still consume their mobility draw (the stream must stay aligned with
   the liveness history, which is itself deterministic) but cannot move. *)
let apply_handoffs t ~slot =
  let drawn = ref [] in
  Array.iteri
    (fun gid home ->
      match Mobility.draw t.mobility ~home with
      | Some dst -> (
          match t.orphans.(gid) with
          | Some _ -> ()
          | None -> drawn := (gid, home, dst) :: !drawn)
      | None -> ())
    t.homes;
  let moves, verdicts =
    match t.chaos with
    | None ->
        let moves = List.rev !drawn in
        if Option.is_some t.causality then
          List.iter
            (fun (gid, src, dst) ->
              note_event t
                (Causality.Move
                   {
                     slot;
                     flow = gid;
                     src;
                     dst;
                     verdict = Causality.verdict_deliver;
                   }))
            moves;
        (moves, [])
    | Some chaos ->
        let kept = ref [] and verdicts = ref [] in
        List.iter
          (fun (gid, src, dst) ->
            let v = Chaos.handoff_verdict chaos ~slot ~flow:gid ~src ~dst in
            if Option.is_some t.causality then
              note_event t
                (Causality.Move
                   { slot; flow = gid; src; dst; verdict = verdict_name v });
            match v with
            | Chaos.Blocked -> ()
            | Chaos.Deliver -> kept := (gid, src, dst) :: !kept
            | (Chaos.Lost | Chaos.Corrupt) as v ->
                kept := (gid, src, dst) :: !kept;
                verdicts := (gid, v) :: !verdicts)
          (List.rev !drawn);
        (List.rev !kept, List.rev !verdicts)
  in
  let rehomes = ref [] in
  (match t.chaos with
  | None -> ()
  | Some chaos ->
      (* Orphans from a barrier strictly before this one are eligible; a
         cell that died this very slot keeps its flows parked for at
         least one full epoch.  No draw is consumed when every cell is
         down — liveness is already deterministic. *)
      Array.iteri
        (fun gid o ->
          match o with
          | Some (parcel, since) when since < slot -> (
              match Chaos.rehome_target chaos with
              | Some dst -> rehomes := (gid, parcel, dst) :: !rehomes
              | None -> ())
          | Some _ | None -> ())
        t.orphans);
  let rehomes = List.rev !rehomes in
  (match (moves, rehomes) with
  | [], [] -> ()
  | _ ->
      let affected = Array.make (Array.length t.cells) false in
      List.iter
        (fun (_, src, dst) ->
          affected.(src) <- true;
          affected.(dst) <- true)
        moves;
      List.iter (fun (_, _, dst) -> affected.(dst) <- true) rehomes;
      let parcel_of = Array.make t.n_flows None in
      Array.iteri
        (fun c cell ->
          if affected.(c) then
            List.iter
              (fun p -> parcel_of.(p.Cell.member.Cell.gid) <- Some p)
              (Cell.dissolve cell))
        t.cells;
      List.iter
        (fun (gid, src, dst) ->
          t.homes.(gid) <- dst;
          t.moves <- t.moves + 1;
          parcel_of.(gid) <-
            Option.map (fun p -> { p with Cell.moved = true }) parcel_of.(gid);
          Cell.note_departure t.cells.(src);
          Cell.note_arrival t.cells.(dst))
        moves;
      (* Transit faults rewrite the parcels of lost/corrupted moves.  A
         lost parcel arrives as a fresh flow (zero carry, empty backlog);
         a corrupted one arrives mangled, the receiver detects the digest
         mismatch and falls back to a zero carry, keeping the backlog —
         packets are re-sent end-to-end, scheduler state is not. *)
      (match t.chaos with
      | Some chaos ->
          List.iter
            (fun (gid, v) ->
              parcel_of.(gid) <-
                Option.map
                  (fun p ->
                    match v with
                    | Chaos.Lost ->
                        Chaos.note_lost_carry chaos
                          ~lag:p.Cell.carry.Sched.lag
                          ~credit:p.Cell.carry.Sched.credit
                          ~packets:(List.length p.Cell.backlog);
                        { p with Cell.carry = Sched.carry_zero; backlog = [] }
                    | Chaos.Corrupt ->
                        let sent = Chaos.carry_digest p.Cell.carry in
                        let received = Chaos.mangle_carry p.Cell.carry in
                        let carry =
                          if Int.equal (Chaos.carry_digest received) sent then
                            received
                          else begin
                            Chaos.note_lost_carry chaos
                              ~lag:p.Cell.carry.Sched.lag
                              ~credit:p.Cell.carry.Sched.credit ~packets:0;
                            Sched.carry_zero
                          end
                        in
                        { p with Cell.carry = carry }
                    | Chaos.Deliver | Chaos.Blocked -> p)
                  parcel_of.(gid))
            verdicts
      | None -> ());
      List.iter
        (fun (gid, parcel, dst) ->
          t.homes.(gid) <- dst;
          t.orphans.(gid) <- None;
          t.moves <- t.moves + 1;
          parcel_of.(gid) <- Some { parcel with Cell.moved = true };
          (match t.chaos with
          | Some chaos -> Chaos.note_rehomed chaos
          | None -> ());
          note_event t (Causality.Rehome { slot; flow = gid; dst });
          Cell.note_arrival t.cells.(dst))
        rehomes;
      (* Every parcel is homed at an affected cell by now: route them in
         one pass, each cell's list in ascending global id. *)
      let arriving = Array.make (Array.length t.cells) [] in
      for gid = t.n_flows - 1 downto 0 do
        match parcel_of.(gid) with
        | Some p ->
            let c = t.homes.(gid) in
            arriving.(c) <- p :: arriving.(c)
        | None -> ()
      done;
      Array.iteri
        (fun c cell ->
          if affected.(c) then ignore (Cell.rebuild cell ~slot arriving.(c)))
        t.cells)

let barrier t ~slot =
  (match t.chaos with
  | Some chaos ->
      (* Fixed draw order — recoveries, crashes, blackouts, armed faults —
         then the handoff pass below consumes its own verdict/re-home
         draws.  All sequential, all from the chaos stream. *)
      ignore (Chaos.draw_recoveries chaos ~slot);
      List.iter (fun c -> crash_cell t ~slot c) (Chaos.draw_crashes chaos ~slot);
      Chaos.draw_blackouts chaos ~slot;
      Chaos.arm_worker_faults chaos ~slot
  | None -> ());
  apply_handoffs t ~slot;
  match t.chaos with
  | Some chaos -> Chaos.note_gauges chaos ~orphaned:(orphan_count t)
  | None -> ()

(* Parallel phase.  Without chaos this is the plain fan-out.  With chaos,
   down cells sit the epoch out, every live cell's thunk first consumes
   its armed-fault flag ({!Chaos.inject} — before any session mutation, so
   a retry replays clean state), transient faults are retried once, and
   persistent ones are accepted as typed failures, graded against the
   plan's per-epoch budget after the join. *)
let advance_cells t ~jobs ~until =
  match t.chaos with
  | None ->
      ignore (Pool.map ~jobs (fun cell -> Cell.advance cell ~until) t.cells)
  | Some chaos ->
      let live = ref [] in
      for c = Array.length t.cells - 1 downto 0 do
        if not (Chaos.is_down chaos ~cell:c) then live := c :: !live
      done;
      let live = Array.of_list !live in
      let outcomes =
        Pool.map_outcomes ~jobs ~retries:1 ~retry_if:Chaos.retryable
          (fun c ->
            (* analyze: allow A2 -- inject only touches the armed-flag Atomic.t array; the mutable plan state is drawn at sequential barriers only *)
            Chaos.inject chaos ~cell:c;
            (* analyze: allow A2 -- cell c is owned by exactly one worker per epoch (live has no duplicates); writes are disjoint and joined at the barrier *)
            Cell.advance t.cells.(c) ~until;
            Ok ())
          live
      in
      let failed = ref [] in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Ok () -> ()
          | Error e ->
              if Chaos.injected_fault e then failed := live.(i) :: !failed
              else
                (* a real worker error — attach the fault history and
                   propagate; degradation is for injected faults only *)
                Error.raise_
                  (Error.add_context (Chaos.timeline_context chaos) e))
        outcomes;
      let failed = List.rev !failed in
      let budget = (Chaos.plan chaos).Spec.budget in
      if List.length failed > budget then
        Error.sim_fault ~who:"Wfs_topo.Topology"
          "injected worker faults exceeded the epoch budget"
          ~context:
            (("slot", string_of_int until)
            :: ( "failed-cells",
                 String.concat "," (List.map string_of_int failed) )
            :: ("budget", string_of_int budget)
            :: Chaos.timeline_context chaos)
      else
        List.iter
          (fun c ->
            Chaos.note_worker_fault chaos ~slot:until ~cell:c;
            crash_cell t ~slot:until c)
          failed

let run ?(jobs = 1) ?on_barrier t =
  if jobs < 1 then Error.invalidf "Topology.run" "jobs must be >= 1, got %d" jobs;
  if Option.is_some t.result then
    Error.invalid "Topology.run" "topology already run";
  let rec loop from =
    if from < t.horizon then begin
      let until = Int.min (from + t.epoch) t.horizon in
      advance_cells t ~jobs ~until;
      if until < t.horizon then begin
        barrier t ~slot:until;
        match on_barrier with Some f -> f ~slot:until | None -> ()
      end;
      loop until
    end
  in
  loop 0;
  let merged = Metrics.create ~histograms:t.histograms ~n_flows:t.n_flows () in
  Array.iter (fun cell -> Cell.finish cell ~into:merged) t.cells;
  t.result <- Some merged

let metrics t =
  match t.result with
  | Some m -> m
  | None -> Error.invalid "Topology.metrics" "run the topology first"

(* Barrier-time cumulative view: every cell's bank plus its live
   session's accumulator, remapped to global ids.  Orphan parcels'
   backlogs are invisible here (their packets sit outside any session),
   exactly as in the final merge before their re-home. *)
let peek_metrics t =
  let m = Metrics.create ~histograms:t.histograms ~n_flows:t.n_flows () in
  Array.iter (fun cell -> Cell.peek cell ~into:m) t.cells;
  m

let cell_instruments t ~cell = Cell.instruments t.cells.(cell)

let instruments t =
  Instruments.merge_all
    (Array.to_list (Array.map Cell.instruments t.cells))

let snapshot t ~slot =
  let base =
    [
      ("slot", Json.Int slot);
      ( "homes",
        Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) t.homes)) );
      ("moves", Json.Int t.moves);
    ]
  in
  match t.chaos with
  | None -> Json.Obj base
  | Some chaos ->
      Json.Obj
        (base
        @ [
            ( "down",
              Json.Arr
                (List.init (n_cells t) (fun c ->
                     Json.Bool (Chaos.is_down chaos ~cell:c))) );
            ("orphans", Json.Arr (List.map (fun g -> Json.Int g) (orphaned t)));
            ("faults", Json.Int (List.length (Chaos.timeline chaos)));
          ])
