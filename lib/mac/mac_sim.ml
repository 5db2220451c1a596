module Core = Wfs_core
module Packet = Wfs_traffic.Packet
module Channel = Wfs_channel.Channel
module Predictor = Wfs_channel.Predictor

type flow_spec = {
  addr : Frame.flow_addr;
  weight : float;
  source : Wfs_traffic.Arrival.t;
  channel : Channel.t;
  drop : Core.Params.drop_policy;
}

type contention_policy = Single_shot | Aloha of float

type config = {
  flows : flow_spec array;
  control_weight : float;
  wps : Core.Params.wps;
  contention : contention_policy;
  horizon : int;
  rng : Wfs_util.Rng.t;
  trace : Wfs_core.Tracelog.t option;
  hooks : Core.Wireless_sched.instance -> Core.Simulator.hook list;
  profiler : Core.Simulator.profiler_hooks option;
}

let config ?(control_weight = 1.) ?wps ?(contention = Single_shot) ?trace
    ?(hooks = fun _ -> []) ?profiler ~rng ~horizon flows =
  if horizon < 0 then Wfs_util.Error.invalid "Mac_sim.config" "negative horizon";
  let wps = match wps with Some p -> p | None -> Core.Params.swapa () in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun fs ->
      if Frame.is_control fs.addr then
        Wfs_util.Error.invalid "Mac_sim.config" "the control address is reserved";
      if Hashtbl.mem seen fs.addr then
        Wfs_util.Error.invalid "Mac_sim.config" "duplicate flow address";
      Hashtbl.replace seen fs.addr ())
    flows;
  (match contention with
  | Aloha p when not (p > 0. && p <= 1.) ->
      Wfs_util.Error.invalid "Mac_sim.config" "ALOHA persistence must be in (0,1]"
  | Aloha _ | Single_shot -> ());
  { flows; control_weight; wps; contention; horizon; rng; trace; hooks; profiler }

type result = {
  metrics : Core.Metrics.t;
  control_slots : int;
  data_slots : int;
  idle_slots : int;
  notifications_won : int;
  notification_collisions : int;
  piggyback_reveals : int;
  mean_reveal_delay : float;
}

(* Per-flow MAC-side state: packets the base station has not been told about
   yet (uplink only — downlink queues live at the base station). *)
type mac_flow = {
  spec : flow_spec;
  unknown : Packet.t Queue.t;
  predictor : Predictor.t;
}

let is_uplink mf = mf.spec.addr.Frame.direction = Frame.Uplink

let run cfg =
  let n = Array.length cfg.flows in
  let control = n in
  (* WPS sees n data flows plus the always-backlogged control flow. *)
  let params_flows =
    Array.init (n + 1) (fun id ->
        if id = control then
          Core.Params.flow ~id ~weight:cfg.control_weight ()
        else
          Core.Params.flow ~id ~weight:cfg.flows.(id).weight
            ~drop:cfg.flows.(id).drop ())
  in
  let wps = Core.Wps.create ~params:cfg.wps ?trace:cfg.trace params_flows in
  let sched = Core.Wps.instance wps in
  (* As in Exec.run, hooks arrive as a builder: the WPS instance is
     internal, so the caller says which hooks and this function builds them
     once the scheduler exists. *)
  let hooks = cfg.hooks sched in
  let mac =
    Array.map
      (fun spec ->
        { spec; unknown = Queue.create (); predictor = Predictor.create One_step })
      cfg.flows
  in
  (* The hooks' view of what [select] was told: the same answers through
     the non-mutating peek. *)
  let peek_good ~slot i =
    i = control
    || Channel.state_is_good
         (Predictor.peek mac.(i).predictor mac.(i).spec.channel ~slot)
  in
  let metrics = Core.Metrics.create ~n_flows:n () in
  let reveal_delay = Wfs_util.Stats.Summary.create () in
  let control_slots = ref 0 in
  let data_slots = ref 0 in
  let idle_slots = ref 0 in
  let notifications_won = ref 0 in
  let notification_collisions = ref 0 in
  let piggyback_reveals = ref 0 in
  let seqs = Array.make n 0 in
  (* Keep the control flow's queue at exactly one dummy packet. *)
  let control_seq = ref 0 in
  let feed_control ~slot =
    if sched.queue_length control = 0 then begin
      let pkt = Packet.make ~flow:control ~seq:!control_seq ~arrival:slot () in
      incr control_seq;
      sched.enqueue ~slot pkt
    end
  in
  let reveal ~slot ~via_piggyback flow =
    let mf = mac.(flow) in
    let continue = ref true in
    while !continue do
      match Queue.take_opt mf.unknown with
      | None -> continue := false
      | Some pkt ->
          Wfs_util.Stats.Summary.add reveal_delay
            (float_of_int (slot - pkt.Packet.arrival));
          if via_piggyback then incr piggyback_reveals;
          sched.enqueue ~slot pkt
    done
  in
  (* Piggybacking: a successful transmission from host [h] carries current
     queue sizes for every flow of that host. *)
  let piggyback_host ~slot host =
    Array.iteri
      (fun i mf ->
        if is_uplink mf && mf.spec.addr.Frame.host = host then
          reveal ~slot ~via_piggyback:true i)
      mac
  in
  let known flow = sched.queue_length flow > 0 in
  let host_has_known_flow host =
    let found = ref false in
    Array.iteri
      (fun i mf ->
        if
          (not !found) && is_uplink mf
          && mf.spec.addr.Frame.host = host
          && known i
        then found := true)
      mac;
    !found
  in
  let delay_bound_of = function
    | Core.Params.Delay_bound d | Core.Params.Retx_or_delay (_, d) -> Some d
    | Core.Params.No_drop | Core.Params.Retx_limit _ -> None
  in
  let retx_limit_of = function
    | Core.Params.Retx_limit k | Core.Params.Retx_or_delay (k, _) -> Some k
    | Core.Params.No_drop | Core.Params.Delay_bound _ -> None
  in
  (* Observability hooks (same contract as {!Core.Simulator}): one branch
     each when disabled. *)
  let phase_begin p =
    match cfg.profiler with None -> () | Some h -> h.Core.Simulator.phase_begin p
  in
  let phase_end p =
    match cfg.profiler with None -> () | Some h -> h.Core.Simulator.phase_end p
  in
  for slot = 0 to cfg.horizon - 1 do
    feed_control ~slot;
    (* 1. Arrivals: downlink packets are immediately known; uplink packets
       start invisible. *)
    phase_begin Core.Simulator.phase_arrivals;
    Array.iteri
      (fun i mf ->
        let count = Wfs_traffic.Arrival.arrivals mf.spec.source ~slot in
        Core.Metrics.on_arrivals metrics ~flow:i ~count;
        for _ = 1 to count do
          let pkt = Packet.make ~flow:i ~seq:seqs.(i) ~arrival:slot () in
          seqs.(i) <- seqs.(i) + 1;
          if is_uplink mf then Queue.push pkt mf.unknown
          else sched.enqueue ~slot pkt
        done)
      mac;
    phase_end Core.Simulator.phase_arrivals;
    (* 2–3. Channels and one-step predictions (the control flow is always
       good). *)
    phase_begin Core.Simulator.phase_predict;
    let states =
      Array.map (fun mf -> Channel.advance mf.spec.channel ~slot) mac
    in
    let predicted_good i =
      i = control
      || Channel.state_is_good
           (Predictor.predict mac.(i).predictor mac.(i).spec.channel ~slot)
    in
    phase_end Core.Simulator.phase_predict;
    (* 4. Delay-bound drops apply to known and still-invisible packets
       alike (the host drops its own stale packets). *)
    phase_begin Core.Simulator.phase_drops;
    Array.iteri
      (fun i mf ->
        match delay_bound_of mf.spec.drop with
        | None -> ()
        | Some bound ->
            while
              Core.Wireless_sched.head_expired sched ~flow:i ~now:slot ~bound
            do
              sched.drop_head ~flow:i;
              Core.Metrics.on_drop metrics ~flow:i
            done;
            let continue = ref true in
            while !continue do
              match Queue.peek_opt mf.unknown with
              | Some pkt when Packet.age pkt ~now:slot > bound ->
                  ignore (Queue.take_opt mf.unknown);
                  Core.Metrics.on_drop metrics ~flow:i
              | Some _ | None -> continue := false
            done)
      mac;
    phase_end Core.Simulator.phase_drops;
    (* 5. Scheduling decision. *)
    phase_begin Core.Simulator.phase_select;
    let selected = sched.select ~slot ~predicted_good in
    phase_end Core.Simulator.phase_select;
    phase_begin Core.Simulator.phase_transmit;
    (match selected with
    | None ->
        incr idle_slots;
        Core.Metrics.on_idle_slot metrics
    | Some f when f = control ->
        (* Control slot: notification contention for unknown uplink flows
           whose host has nothing to piggyback on. *)
        incr control_slots;
        sched.complete ~flow:control;
        let contenders =
          let out = ref [] in
          Array.iteri
            (fun i mf ->
              if
                is_uplink mf
                && (not (Queue.is_empty mf.unknown))
                && (not (known i))
                && not (host_has_known_flow mf.spec.addr.Frame.host)
              then out := i :: !out)
            mac;
          List.rev !out
        in
        let outcome =
          match cfg.contention with
          | Single_shot ->
              Contention.contend ~rng:cfg.rng
                ~minislots:Frame.notification_minislots ~contenders
          | Aloha persistence ->
              Contention.contend_aloha ~rng:cfg.rng
                ~minislots:Frame.notification_minislots ~persistence
                ~contenders
        in
        notifications_won := !notifications_won + List.length outcome.winners;
        notification_collisions :=
          !notification_collisions + List.length outcome.collided;
        List.iter (reveal ~slot ~via_piggyback:false) outcome.winners
    | Some f ->
        incr data_slots;
        Core.Metrics.on_busy_slot metrics;
        let q = sched.packets f in
        if Packet.Ring.is_empty q then
          Wfs_util.Error.invalid "Mac_sim.run" "selected flow has empty queue";
        if Channel.state_is_good states.(f) then begin
          let delay = slot - Packet.Ring.head_arrival q in
          sched.complete ~flow:f;
          Core.Metrics.on_deliver metrics ~flow:f ~delay;
          (* The ack/data exchange carries piggybacked queue sizes for
             the transmitting host (uplink) — and the base station's own
             transmission lets every host monitor the channel. *)
          if is_uplink mac.(f) then
            piggyback_host ~slot mac.(f).spec.addr.Frame.host
        end
        else begin
          Packet.Ring.bump_attempts q;
          Core.Metrics.on_failed_attempt metrics ~flow:f;
          sched.fail ~flow:f;
          match retx_limit_of mac.(f).spec.drop with
          | Some limit when Packet.Ring.head_attempts q > limit ->
              sched.drop_head ~flow:f;
              Core.Metrics.on_drop metrics ~flow:f
          | Some _ | None -> ()
        end);
    phase_end Core.Simulator.phase_transmit;
    phase_begin Core.Simulator.phase_slot_end;
    sched.on_slot_end ~slot;
    (* Hooks see the data flows' true channel states; [selected] may be
       [Some n] (the control-flow index) on a control slot. *)
    (match hooks with
    | [] -> ()
    | hooks ->
        let predicted_good = peek_good ~slot in
        List.iter
          (fun (h : Core.Simulator.hook) ->
            h ~slot ~selected ~states ~metrics ~predicted_good)
          hooks);
    phase_end Core.Simulator.phase_slot_end
  done;
  {
    metrics;
    control_slots = !control_slots;
    data_slots = !data_slots;
    idle_slots = !idle_slots;
    notifications_won = !notifications_won;
    notification_collisions = !notification_collisions;
    piggyback_reveals = !piggyback_reveals;
    mean_reveal_delay = Wfs_util.Stats.Summary.mean reveal_delay;
  }

module Json = Wfs_util.Json

let result_to_json r =
  Json.Obj
    [
      ("metrics", Core.Metrics.to_json r.metrics);
      ("control_slots", Json.Int r.control_slots);
      ("data_slots", Json.Int r.data_slots);
      ("idle_slots", Json.Int r.idle_slots);
      ("notifications_won", Json.Int r.notifications_won);
      ("notification_collisions", Json.Int r.notification_collisions);
      ("piggyback_reveals", Json.Int r.piggyback_reveals);
      ("mean_reveal_delay", Json.of_float_ext r.mean_reveal_delay);
    ]

let result_of_json v =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k v) Json.to_int in
  let* metrics = Option.bind (Json.member "metrics" v) Core.Metrics.of_json in
  let* control_slots = int "control_slots" in
  let* data_slots = int "data_slots" in
  let* idle_slots = int "idle_slots" in
  let* notifications_won = int "notifications_won" in
  let* notification_collisions = int "notification_collisions" in
  let* piggyback_reveals = int "piggyback_reveals" in
  let* mean_reveal_delay =
    Option.bind (Json.member "mean_reveal_delay" v) Json.to_float_ext
  in
  Some
    {
      metrics;
      control_slots;
      data_slots;
      idle_slots;
      notifications_won;
      notification_collisions;
      piggyback_reveals;
      mean_reveal_delay;
    }
