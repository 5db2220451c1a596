module Sched = Wfs_core.Wireless_sched
module Sim = Wfs_core.Simulator
module Params = Wfs_core.Params
module Registry = Wfs_core.Registry
module Metrics = Wfs_core.Metrics
module Sim_config = Wfs_core.Sim_config
module Instruments = Wfs_obs.Instruments
module Packet = Wfs_traffic.Packet

type member = { gid : int; setup : Sim.flow_setup }

type parcel = {
  member : member;
  carry : Sched.carry;
  backlog : Packet.t list;
  moved : bool;
}

(* Observability tap: every callback fires from sequential code only —
   [on_roster] and [on_carry] from install (cell creation and the epoch
   barrier's rebuild), and the probe builder once per install.  The hook
   it returns is the only tap artifact that runs inside the parallel
   phase, and it writes exclusively to per-cell state (Wfs_xray.Mux part
   files), so cross-domain ordering never exists. *)
type tap = {
  on_roster : cell:int -> slot:int -> gids:int array -> unit;
  probe :
    cell:int ->
    n_flows:int ->
    Sched.instance ->
    Wfs_core.Simulator.hook option;
  on_carry :
    cell:int ->
    slot:int ->
    gid:int ->
    carried:Sched.carry ->
    accepted:Sched.carry ->
    unit;
}

type t = {
  cell_id : int;
  entry : Registry.entry;
  credit_limit : int option;
  debit_limit : int option;
  horizon : int;
  histograms : bool;
  invariants : bool;
  fast_path : bool;
  bank : Metrics.t;
      (* one row per flow this cell has hosted, in the order each was
         first banked; [banked.(row)] is that flow's global id *)
  mutable banked : int array;
  ins : Instruments.t;
  epochs : Instruments.counter;
  handoffs_in : Instruments.counter;
  handoffs_out : Instruments.counter;
  rebuilds : Instruments.counter;
  carried_lag : Instruments.gauge;
  carried_credit : Instruments.gauge;
  truncated_lag : Instruments.gauge;
  truncated_credit : Instruments.gauge;
  tap : tap option;
  mutable members : member array;
  mutable sched : Sched.instance option;
  mutable session : Sim.Session.t option;
}

let id t = t.cell_id
let n_members t = Array.length t.members
let gids t = Array.to_list (Array.map (fun m -> m.gid) t.members)
let instruments t = t.ins
let note_departure t = Instruments.incr t.handoffs_out
let note_arrival t = Instruments.incr t.handoffs_in

(* The carry ledger: carried = accepted + truncated, where import may only
   shrink the magnitude (clamp toward zero), never grow it or flip its
   sign.  An import outside that envelope is a scheduler handoff-hook bug,
   caught here rather than surfacing as silently unfair service.  Half a
   packet of slack covers integral schedulers rounding a virtual-time
   denominated lag. *)
let check_ledger t ~gid ~(carried : Sched.carry) ~(accepted : Sched.carry) =
  Wfs_core.Invariant.check_carry ~who:"Wfs_topo.Cell.rebuild"
    ~context:
      [ ("cell", string_of_int t.cell_id); ("flow", string_of_int gid) ]
    ~carried ~accepted

let account_carry t ~accepted ~truncated =
  Instruments.set t.carried_lag (Float.abs accepted.Sched.lag);
  Instruments.set t.carried_credit (float_of_int (abs accepted.Sched.credit));
  Instruments.set t.truncated_lag (Float.abs truncated.Sched.lag);
  Instruments.set t.truncated_credit
    (float_of_int (abs truncated.Sched.credit))

(* (Re)construct the scheduler and session over a parcel list: re-number
   flows to dense local ids in ascending global id, import carries,
   re-enqueue backlogs, resume at [slot]. *)
let install t ~slot parcels =
  let parcels =
    List.sort (fun a b -> Int.compare a.member.gid b.member.gid) parcels
  in
  let members = Array.of_list (List.map (fun p -> p.member) parcels) in
  t.members <- members;
  (match t.tap with
  | Some tp ->
      tp.on_roster ~cell:t.cell_id ~slot
        ~gids:(Array.map (fun m -> m.gid) members)
  | None -> ());
  if Array.length members = 0 then begin
    t.sched <- None;
    t.session <- None
  end
  else begin
    let setups =
      Array.mapi
        (fun lid m ->
          { m.setup with Sim.flow = { m.setup.Sim.flow with Params.id = lid } })
        members
    in
    let flows = Wfs_core.Presets.flows_of setups in
    let sched =
      t.entry.Registry.make ?credit_limit:t.credit_limit
        ?debit_limit:t.debit_limit flows
    in
    List.iteri
      (fun lid p ->
        if p.carry.Sched.credit <> 0 || Float.abs p.carry.Sched.lag > 0. then begin
          let accepted =
            match sched.Sched.handoff with
            | Some h -> h.Sched.import ~flow:lid p.carry
            | None -> Sched.carry_zero
          in
          check_ledger t ~gid:p.member.gid ~carried:p.carry ~accepted;
          if p.moved then begin
            account_carry t ~accepted
              ~truncated:
                {
                  Sched.lag = p.carry.Sched.lag -. accepted.Sched.lag;
                  credit = p.carry.Sched.credit - accepted.Sched.credit;
                };
            match t.tap with
            | Some tp ->
                tp.on_carry ~cell:t.cell_id ~slot ~gid:p.member.gid
                  ~carried:p.carry ~accepted
            | None -> ()
          end
        end
        else if p.moved then begin
          account_carry t ~accepted:Sched.carry_zero
            ~truncated:Sched.carry_zero;
          match t.tap with
          | Some tp ->
              tp.on_carry ~cell:t.cell_id ~slot ~gid:p.member.gid
                ~carried:Sched.carry_zero ~accepted:Sched.carry_zero
          | None -> ()
        end)
      parcels;
    List.iteri
      (fun lid p ->
        List.iter
          (fun pkt -> sched.Sched.enqueue ~slot { pkt with Packet.flow = lid })
          p.backlog)
      parcels;
    let probe =
      match t.tap with
      | Some tp -> tp.probe ~cell:t.cell_id ~n_flows:(Array.length members) sched
      | None -> None
    in
    (* Hooks keep per-run state, so every install builds fresh ones: the
       invariant monitor first, then the tap's probe. *)
    let cfg =
      Sim_config.v ~horizon:t.horizon setups
      |> Sim_config.with_predictor t.entry.Registry.predictor
      |> (if t.histograms then Sim_config.with_histograms else Fun.id)
      |> Sim_config.with_fast_path t.fast_path
      |> (if t.invariants then Sim_config.with_hook (Wfs_core.Invariant.hook sched)
          else Fun.id)
      |> match probe with Some p -> Sim_config.with_hook p | None -> Fun.id
    in
    t.sched <- Some sched;
    t.session <- Some (Sim_config.start ~first_slot:slot sched cfg)
  end

let create ?credit_limit ?debit_limit ?(histograms = false)
    ?(invariants = false) ?(fast_path = false) ?tap ~id ~sched ~horizon
    members =
  let ins = Instruments.create () in
  (* Registration order is the positional merge key across cells: every
     cell runs exactly this sequence. *)
  let epochs = Instruments.counter ins "topo.epochs" in
  let handoffs_in = Instruments.counter ins "topo.handoffs.in" in
  let handoffs_out = Instruments.counter ins "topo.handoffs.out" in
  let rebuilds = Instruments.counter ins "topo.rebuilds" in
  let carried_lag =
    Instruments.gauge ~policy:Instruments.Sum ins "topo.carry.lag"
  in
  let carried_credit =
    Instruments.gauge ~policy:Instruments.Sum ins "topo.carry.credit"
  in
  let truncated_lag =
    Instruments.gauge ~policy:Instruments.Sum ins "topo.carry.lag.truncated"
  in
  let truncated_credit =
    Instruments.gauge ~policy:Instruments.Sum ins "topo.carry.credit.truncated"
  in
  let t =
    {
      cell_id = id;
      entry = sched;
      credit_limit;
      debit_limit;
      horizon;
      histograms;
      invariants;
      fast_path;
      bank = Metrics.create ~histograms ~n_flows:0 ();
      banked = [||];
      ins;
      epochs;
      handoffs_in;
      handoffs_out;
      rebuilds;
      carried_lag;
      carried_credit;
      truncated_lag;
      truncated_credit;
      tap;
      members = [||];
      sched = None;
      session = None;
    }
  in
  install t ~slot:0
    (List.map
       (fun m ->
         { member = m; carry = Sched.carry_zero; backlog = []; moved = false })
       members);
  t

let advance t ~until =
  (match t.session with
  | Some s -> Sim.Session.advance s ~until
  | None -> ());
  Instruments.incr t.epochs

(* The bank row of [gid], or -1 before its first banking here.  A scan,
   because an index sized to the topology would put back the cells ×
   flows cost the bank avoids. *)
let rec find_row banked gid row =
  if row = Array.length banked then -1
  else if Int.equal banked.(row) gid then row
  else find_row banked gid (row + 1)

let row_of t gid = find_row t.banked gid 0

(* Fold the session's metrics into the bank, first appending an empty row
   for each member banked here for the first time.  Growing never merges
   rows, so a row holds the flow's sessions in this cell merged in
   barrier order, and {!peek} and {!finish} hand each row to the global
   accumulator in one merge. *)
let bank t session =
  let fresh = List.filter (fun gid -> row_of t gid < 0) (gids t) in
  if not (List.is_empty fresh) then begin
    Metrics.add_flows ~histograms:t.histograms t.bank
      ~count:(List.length fresh);
    t.banked <- Array.append t.banked (Array.of_list fresh)
  end;
  Metrics.absorb t.bank ~src:(Sim.Session.metrics session)
    ~map:(fun lid -> row_of t t.members.(lid).gid)

let fold_bank t ~into =
  Metrics.absorb into ~src:t.bank ~map:(fun row -> t.banked.(row))

let dissolve t =
  match (t.session, t.sched) with
  | Some session, Some sched ->
      bank t session;
      (* Export every carry before draining any queue: exports are
         read-only by contract, drains are not, and a scheduler may keep
         cross-flow accounting. *)
      let carries =
        Array.mapi
          (fun lid _ ->
            match sched.Sched.handoff with
            | Some h -> h.Sched.export ~flow:lid
            | None -> Sched.carry_zero)
          t.members
      in
      let parcels =
        Array.to_list
          (Array.mapi
             (fun lid m ->
               let q = sched.Sched.packets lid in
               let rec drain acc =
                 if Packet.Ring.is_empty q then List.rev acc
                 else begin
                   let pkt = Packet.Ring.head q ~flow:lid in
                   sched.Sched.drop_head ~flow:lid;
                   drain (pkt :: acc)
                 end
               in
               {
                 member = m;
                 carry = carries.(lid);
                 backlog = drain [];
                 moved = false;
               })
             t.members)
      in
      t.session <- None;
      t.sched <- None;
      t.members <- [||];
      parcels
  | _ ->
      t.session <- None;
      t.sched <- None;
      t.members <- [||];
      []

let rebuild t ~slot parcels =
  Instruments.incr t.rebuilds;
  install t ~slot parcels;
  t

(* Non-destructive cumulative view: the bank plus the live session's
   accumulator, remapped to global ids.  Feeds barrier-time windowed
   aggregation without touching the session. *)
let peek t ~into =
  fold_bank t ~into;
  match t.session with
  | Some s ->
      Metrics.absorb into ~src:(Sim.Session.metrics s)
        ~map:(fun lid -> t.members.(lid).gid)
  | None -> ()

let finish t ~into =
  (match t.session with
  | Some s ->
      Sim.Session.advance s ~until:t.horizon;
      bank t s
  | None -> ());
  t.session <- None;
  t.sched <- None;
  fold_bank t ~into
