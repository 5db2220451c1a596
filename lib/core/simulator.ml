module Ring = Wfs_traffic.Packet.Ring
module Arrival = Wfs_traffic.Arrival
module Channel = Wfs_channel.Channel
module Predictor = Wfs_channel.Predictor
module Event_cal = Wfs_util.Event_cal

type flow_setup = {
  flow : Params.flow;
  source : Arrival.t;
  channel : Channel.t;
}

(* Self-profiling phase ids: one per section of the slot loop.  Kept as
   plain ints so the hot-loop hook calls are branch + call, nothing more. *)
let phase_arrivals = 0
let phase_predict = 1
let phase_drops = 2
let phase_select = 3
let phase_transmit = 4
let phase_slot_end = 5
let n_phases = 6

let phase_name = function
  | 0 -> "arrivals"
  | 1 -> "predict"
  | 2 -> "drops"
  | 3 -> "select"
  | 4 -> "transmit"
  | 5 -> "slot-end"
  | p -> Wfs_util.Error.invalidf "Simulator.phase_name" "unknown phase %d" p

type profiler_hooks = {
  phase_begin : int -> unit;
  phase_end : int -> unit;
}

type hook =
  slot:int ->
  selected:int option ->
  states:Channel.state array ->
  metrics:Metrics.t ->
  predicted_good:(int -> bool) ->
  unit

type config = {
  flows : flow_setup array;
  predictor : Predictor.kind;
  horizon : int;
  trace : Tracelog.t option;
  hooks : hook list;
  profiler : profiler_hooks option;
  histograms : bool;
  fast_path : bool;
  skip_stats : Skip_stats.t option;
}

(* Phase 7's hook walk: a named recursion rather than [List.iter] with a
   closure, so a hooked slot allocates nothing beyond what the hooks do. *)
let rec run_hooks hooks ~slot ~selected ~states ~metrics ~predicted_good =
  match hooks with
  | [] -> ()
  | (h : hook) :: rest ->
      h ~slot ~selected ~states ~metrics ~predicted_good;
      run_hooks rest ~slot ~selected ~states ~metrics ~predicted_good

let delay_bound_of (p : Params.drop_policy) =
  match p with
  | Params.Delay_bound d | Params.Retx_or_delay (_, d) -> Some d
  | Params.No_drop | Params.Retx_limit _ -> None

let retx_limit_of (p : Params.drop_policy) =
  match p with
  | Params.Retx_limit k | Params.Retx_or_delay (k, _) -> Some k
  | Params.No_drop | Params.Delay_bound _ -> None

module Session = struct
  type t = {
    cfg : config;
    sched : Wireless_sched.instance;
    metrics : Metrics.t;
    seqs : int array;
    tracing : bool;
    record : slot:int -> Tracelog.event -> unit;
    profiling : bool;
    phase_begin : int -> unit;
    phase_end : int -> unit;
    (* Hot-loop scratch, allocated once per session: the per-slot closures
       read [cur_slot] instead of capturing the loop variable, and [states]
       is overwritten in place each slot (see docs/PERF.md). *)
    states : Channel.state array;
    cur_slot : int ref;
    predicted_good : int -> bool;
    peek_good : int -> bool;
    live_sources : int array;
    static_channel : bool array;
    delay_bounds : int array;
    delay_flows : int array;
    retx_limits : int array;
    buffers : int array;
    first_slot : int;
    mutable next : int;
    (* Event-compressed fast path (see docs/PERF.md).  [fast] is decided
       once at session creation: the config asked for it, no end-of-slot
       hook, enabled trace or profiler is attached, and the scheduler
       published a quiescent hook.
       [cal] holds at most one pending arrival event per source;
       [src_scanned.(i)] is the slot the next event query for source [i]
       resumes from; [chan_next] is the slot the next dynamic-channel
       catch-up resumes from. *)
    fast : bool;
    cal : Event_cal.t;
    src_scanned : int array;
    dynamic_channels : int array;
    mutable statics_done : bool;
    mutable chan_next : int;
  }

  let create ?metrics ?(first_slot = 0) cfg (sched : Wireless_sched.instance) =
    let n = Array.length cfg.flows in
    if first_slot < 0 || first_slot > cfg.horizon then
      Wfs_util.Error.invalidf "Simulator.Session.create"
        "first_slot %d outside [0, horizon %d]" first_slot cfg.horizon;
    let metrics =
      match metrics with
      | Some m ->
          if Metrics.n_flows m <> n then
            Wfs_util.Error.invalid "Simulator.Session.create"
              "metrics flow count does not match config";
          m
      | None -> Metrics.create ~histograms:cfg.histograms ~n_flows:n ()
    in
    let seqs = Array.make n 0 in
    let predictors =
      Array.map (fun _ -> Predictor.create cfg.predictor) cfg.flows
    in
    let tracing =
      match cfg.trace with None -> false | Some tr -> Tracelog.enabled tr
    in
    let record ~slot ev =
      match cfg.trace with None -> () | Some tr -> Tracelog.record tr ~slot ev
    in
    (* Observability hooks: [profiling] is hoisted so the disabled path costs
       one branch on a register-resident bool per phase boundary — the hook
       closures are only entered when a profiler is actually attached. *)
    let profiling = Option.is_some cfg.profiler in
    let phase_begin p =
      match cfg.profiler with None -> () | Some h -> h.phase_begin p
    in
    let phase_end p =
      match cfg.profiler with None -> () | Some h -> h.phase_end p
    in
    let states = Array.make n Channel.Good in
    let cur_slot = ref first_slot in
    let predicted_good i =
      Channel.state_is_good
        (Predictor.predict predictors.(i) cfg.flows.(i).channel ~slot:!cur_slot)
    in
    (* The hooks' view of "what would the scheduler have been told" goes
       through Predictor.peek: same answer [select] saw this slot (channels
       only advance in phase 2), zero predictor mutation — so checked runs
       stay byte-identical, Periodic_snoop included. *)
    let peek_good i =
      Channel.state_is_good
        (Predictor.peek predictors.(i) cfg.flows.(i).channel ~slot:!cur_slot)
    in
    (* Flow classification, fixed for the whole session: null sources never
       produce an arrival, so their per-slot query is skipped outright, and a
       static channel keeps its state after the first advance, so phase 2
       re-reads [states.(i)] instead of advancing it again (both contracts
       documented in the respective .mlis). *)
    let live_sources =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if not (Arrival.is_never cfg.flows.(i).source) then acc := i :: !acc
      done;
      Array.of_list !acc
    in
    let static_channel =
      Array.map (fun fs -> Channel.is_static fs.channel) cfg.flows
    in
    let delay_bounds =
      Array.map
        (fun fs ->
          match delay_bound_of fs.flow.Params.drop with None -> -1 | Some d -> d)
        cfg.flows
    in
    let delay_flows =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if delay_bounds.(i) >= 0 then acc := i :: !acc
      done;
      Array.of_list !acc
    in
    let retx_limits =
      Array.map
        (fun fs ->
          match retx_limit_of fs.flow.Params.drop with None -> max_int | Some k -> k)
        cfg.flows
    in
    let buffers =
      Array.map
        (fun fs ->
          match fs.flow.Params.buffer with None -> max_int | Some b -> b)
        cfg.flows
    in
    let fast =
      cfg.fast_path && List.is_empty cfg.hooks && not tracing
      && Option.is_none cfg.profiler
      && Option.is_some sched.Wireless_sched.quiescent
    in
    let dynamic_channels =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if not static_channel.(i) then acc := i :: !acc
      done;
      Array.of_list !acc
    in
    {
      cfg;
      sched;
      metrics;
      seqs;
      tracing;
      record;
      profiling;
      phase_begin;
      phase_end;
      states;
      cur_slot;
      predicted_good;
      peek_good;
      live_sources;
      static_channel;
      delay_bounds;
      delay_flows;
      retx_limits;
      buffers;
      first_slot;
      next = first_slot;
      fast;
      cal = Event_cal.create ~n;
      src_scanned = Array.make n first_slot;
      dynamic_channels;
      statics_done = false;
      chan_next = first_slot;
    }

  let next_slot t = t.next
  let metrics t = t.metrics

  (* Source [i]'s [count >= 1] packets of [slot]: the prefix that fits the
     flow's buffer enters the scheduler in one [arrive], the rest is
     dropped at the door.  A traced run still records each packet's
     Arrival, and Drop after it, in seq order. *)
  let[@hot] admit t ~slot i count =
    let sched = t.sched in
    let seq = t.seqs.(i) in
    let room = t.buffers.(i) - sched.queue_length i in
    let admitted = if count <= room then count else Int.max 0 room in
    Metrics.on_arrivals t.metrics ~flow:i ~count;
    if admitted > 0 then sched.arrive ~slot ~flow:i ~seq ~count:admitted;
    if admitted < count then
      Metrics.on_drops t.metrics ~flow:i ~count:(count - admitted);
    t.seqs.(i) <- seq + count;
    if t.tracing then
      for k = 0 to count - 1 do
        t.record ~slot (Tracelog.Arrival { flow = i; seq = seq + k });
        if k >= admitted then
          t.record ~slot
            (Tracelog.Drop { flow = i; seq = seq + k; reason = "buffer" })
      done

  (* Reference engine: every slot of [next, until) runs the full 7-phase
     loop.  This is the executable spec the fast path is checked against
     (differential lockstep, test_perf_opt) and the path every
     observability hook runs on. *)
  let advance_reference t ~until =
    let cfg = t.cfg in
    let sched = t.sched in
    let n = Array.length cfg.flows in
    let metrics = t.metrics in
    let tracing = t.tracing in
    let record = t.record in
    let hooks = cfg.hooks in
    let profiling = t.profiling in
    let phase_begin = t.phase_begin in
    let phase_end = t.phase_end in
    let states = t.states in
    let cur_slot = t.cur_slot in
    let predicted_good = t.predicted_good in
    let peek_good = t.peek_good in
    let live_sources = t.live_sources in
    let static_channel = t.static_channel in
    let delay_bounds = t.delay_bounds in
    let delay_flows = t.delay_flows in
    let retx_limits = t.retx_limits in
    let first_slot = t.first_slot in
    (for slot = t.next to until - 1 do
      cur_slot := slot;
      (* 1. Arrivals. *)
      if profiling then phase_begin phase_arrivals;
      for li = 0 to Array.length live_sources - 1 do
        let i = live_sources.(li) in
        let count = Arrival.arrivals cfg.flows.(i).source ~slot in
        if count > 0 then admit t ~slot i count
      done;
      if profiling then phase_end phase_arrivals;
      (* 2–3. Channel states and predictions. *)
      if profiling then phase_begin phase_predict;
      (* Channels advance exactly once per slot, before predictions read
         them. *)
      for i = 0 to n - 1 do
        if (not static_channel.(i)) || slot = first_slot then
          states.(i) <- Channel.advance cfg.flows.(i).channel ~slot
      done;
      if profiling then phase_end phase_predict;
      (* 4. Delay-bound drops: arrivals are FIFO, so the expired packets
         are a prefix of the queue. *)
      if profiling then phase_begin phase_drops;
      for di = 0 to Array.length delay_flows - 1 do
        let i = delay_flows.(di) in
        let q = sched.packets i in
        while
          Wireless_sched.head_expired sched ~flow:i ~now:slot
            ~bound:delay_bounds.(i)
        do
          let seq = Ring.head_seq q in
          sched.drop_head ~flow:i;
          Metrics.on_drop metrics ~flow:i;
          if tracing then
            record ~slot (Tracelog.Drop { flow = i; seq; reason = "delay" })
        done
      done;
      if profiling then phase_end phase_drops;
      (* 5–6. Selection and transmission outcome. *)
      if profiling then phase_begin phase_select;
      let selected = sched.select ~slot ~predicted_good in
      if profiling then phase_end phase_select;
      if profiling then phase_begin phase_transmit;
      (match selected with
      | None ->
          Metrics.on_idle_slot metrics;
          if tracing then record ~slot Tracelog.Slot_idle
      | Some f ->
          Metrics.on_busy_slot metrics;
          let q = sched.packets f in
          if Ring.is_empty q then
            Wfs_util.Error.invalidf "Simulator.run"
              "scheduler selected flow %d with empty queue" f;
          let seq = Ring.head_seq q in
          if Channel.state_is_good states.(f) then begin
            let delay = slot - Ring.head_arrival q in
            sched.complete ~flow:f;
            Metrics.on_deliver metrics ~flow:f ~delay;
            if tracing then
              record ~slot (Tracelog.Transmit_ok { flow = f; seq; delay })
          end
          else begin
            Ring.bump_attempts q;
            let attempts = Ring.head_attempts q in
            Metrics.on_failed_attempt metrics ~flow:f;
            sched.fail ~flow:f;
            if tracing then
              record ~slot
                (Tracelog.Transmit_fail { flow = f; seq; attempt = attempts });
            if attempts > retx_limits.(f) then begin
              sched.drop_head ~flow:f;
              Metrics.on_drop metrics ~flow:f;
              if tracing then
                record ~slot (Tracelog.Drop { flow = f; seq; reason = "retx" })
            end
          end);
      if profiling then phase_end phase_transmit;
      (* 7. End-of-slot hooks. *)
      if profiling then phase_begin phase_slot_end;
      sched.on_slot_end ~slot;
      (match hooks with
      | [] -> ()
      | hooks ->
          run_hooks hooks ~slot ~selected ~states ~metrics
            ~predicted_good:peek_good);
      if profiling then phase_end phase_slot_end
    done)
    [@hot];
    t.next <- until

  (* Refill the calendar for source [i] with its next arrival inside
     [.., until): called when its previous event was consumed (or at window
     top-up).  A [-1] answer means the source has drawn through [until - 1]
     and stays out of the calendar for the rest of the window. *)
  let[@hot] requery_source t ~until i =
    let e =
      Arrival.next_event t.cfg.flows.(i).source ~from:t.src_scanned.(i)
        ~upto:until
    in
    if e < 0 then t.src_scanned.(i) <- until
    else begin
      Event_cal.push t.cal ~key:e ~id:i;
      t.src_scanned.(i) <- e + 1
    end

  (* One full slot on the fast path: the reference loop's seven phases with
     arrivals read off the calendar instead of polled per source, and
     channels caught up lazily from [chan_next].  Runs only for state-
     changing slots; byte-identity with the reference slot is the
     lockstep suite's induction step. *)
  let[@hot] fast_slot t ~until s =
    let cfg = t.cfg in
    let flows = cfg.flows in
    let sched = t.sched in
    let metrics = t.metrics in
    let states = t.states in
    let cal = t.cal in
    t.cur_slot := s;
    (* 1. Arrivals: exactly the sources whose next event lands on [s],
       popped in ascending flow id — the reference's scan order. *)
    while Event_cal.min_key cal = s do
      let i = Event_cal.pop cal in
      admit t ~slot:s i (Arrival.pending_count flows.(i).source);
      if t.src_scanned.(i) < until then requery_source t ~until i
    done;
    (* 2-3. Channels: statics once per session, dynamics caught up from
       the last observed slot in one run. *)
    if not t.statics_done then begin
      let static_channel = t.static_channel in
      for i = 0 to Array.length static_channel - 1 do
        if static_channel.(i) then
          states.(i) <- Channel.advance flows.(i).channel ~slot:s
      done;
      t.statics_done <- true
    end;
    let dyn = t.dynamic_channels in
    let from = t.chan_next in
    for di = 0 to Array.length dyn - 1 do
      let i = dyn.(di) in
      states.(i) <- Channel.advance_run flows.(i).channel ~from ~slot:s
    done;
    t.chan_next <- s + 1;
    (* 4. Delay-bound drops. *)
    let delay_flows = t.delay_flows in
    let delay_bounds = t.delay_bounds in
    for di = 0 to Array.length delay_flows - 1 do
      let i = delay_flows.(di) in
      while
        Wireless_sched.head_expired sched ~flow:i ~now:s ~bound:delay_bounds.(i)
      do
        sched.drop_head ~flow:i;
        Metrics.on_drop metrics ~flow:i
      done
    done;
    (* 5-6. Selection and transmission outcome. *)
    let selected = sched.select ~slot:s ~predicted_good:t.predicted_good in
    (match selected with
    | None -> Metrics.on_idle_slot metrics
    | Some f ->
        Metrics.on_busy_slot metrics;
        let q = sched.packets f in
        if Ring.is_empty q then
          Wfs_util.Error.invalidf "Simulator.run"
            "scheduler selected flow %d with empty queue" f;
        if Channel.state_is_good states.(f) then begin
          let delay = s - Ring.head_arrival q in
          sched.complete ~flow:f;
          Metrics.on_deliver metrics ~flow:f ~delay
        end
        else begin
          Ring.bump_attempts q;
          Metrics.on_failed_attempt metrics ~flow:f;
          sched.fail ~flow:f;
          if Ring.head_attempts q > t.retx_limits.(f) then begin
            sched.drop_head ~flow:f;
            Metrics.on_drop metrics ~flow:f
          end
        end);
    (* 7. End of slot. *)
    sched.on_slot_end ~slot:s

  (* Event-compressed engine: identical observable behaviour to
     [advance_reference], reached by running only the state-changing slots
     and absorbing each quiescent window — no queued packet anywhere, no
     arrival scheduled before the window's end — through the scheduler's
     closed-form [advance_quiescent].  Channels catch up lazily
     ([Channel.advance_run]) and are forced current at the window end so
     no deferred draw crosses an epoch barrier (a dissolving topology
     session leaves its channels exactly where the reference would). *)
  let advance_fast t ~until ~(q : Wireless_sched.quiescent) =
    let live_sources = t.live_sources in
    let metrics = t.metrics in
    let cal = t.cal in
    (* Skip telemetry is recorded at window granularity only — one call per
       absorbed or declined window, never per slot — so an attached
       collector keeps this engine on the compressed path. *)
    let skips = t.cfg.skip_stats in
    (* Top-up: between advance calls the calendar is empty and every live
       source was scanned through the previous window, so each needs one
       query into the new one. *)
    (for li = 0 to Array.length live_sources - 1 do
      let i = live_sources.(li) in
      if t.src_scanned.(i) < until then requery_source t ~until i
    done;
    let slot = ref t.next in
    while !slot < until do
      let s = !slot in
      let nk = Event_cal.min_key cal in
      if nk > s && q.backlog_empty () then begin
        let stop = if nk < until then nk else until in
        let absorbed = q.advance_quiescent ~now:s ~slots:(stop - s) in
        if absorbed > 0 then begin
          Metrics.on_idle_slots metrics ~count:absorbed;
          (match skips with
          | Some k -> Skip_stats.note_window k ~slots:absorbed
          | None -> ());
          slot := s + absorbed
        end
        else begin
          (* The scheduler declined the window (always allowed): run one
             reference-equivalent slot and re-ask. *)
          (match skips with
          | Some k -> Skip_stats.note_declined k
          | None -> ());
          fast_slot t ~until s;
          slot := s + 1
        end
      end
      else begin
        fast_slot t ~until s;
        slot := s + 1
      end
    done)
    [@hot];
    (* Window-end channel catch-up: every dynamic channel must have drawn
       through [until - 1] before control returns (the next window, or a
       successor session after a topology epoch, resumes from there). *)
    if t.chan_next < until then begin
      let flows = t.cfg.flows in
      let dyn = t.dynamic_channels in
      let from = t.chan_next in
      for di = 0 to Array.length dyn - 1 do
        let i = dyn.(di) in
        t.states.(i) <-
          Channel.advance_run flows.(i).channel ~from ~slot:(until - 1)
      done;
      t.chan_next <- until
    end;
    t.next <- until

  let advance t ~until =
    if until < t.next || until > t.cfg.horizon then
      Wfs_util.Error.invalidf "Simulator.Session.advance"
        "until %d outside [next %d, horizon %d]" until t.next t.cfg.horizon;
    let engine =
      if t.fast then t.sched.Wireless_sched.quiescent else None
    in
    (match t.cfg.skip_stats with
    | Some k ->
        let slots = until - t.next in
        if Option.is_some engine then Skip_stats.note_engine k ~slots
        else Skip_stats.note_reference k ~slots
    | None -> ());
    match engine with
    | Some q -> advance_fast t ~until ~q
    | None -> advance_reference t ~until

  let finish t =
    advance t ~until:t.cfg.horizon;
    t.metrics
end

let run cfg sched = Session.finish (Session.create cfg sched)
