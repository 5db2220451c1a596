module Core = Wfs_core
module Tracelog = Wfs_core.Tracelog

type report = { samples : int; violations : int; worst_slack : float }

let pp_report ppf r =
  Format.fprintf ppf "samples=%d violations=%d worst_slack=%.3f" r.samples
    r.violations r.worst_slack

let empty_report = { samples = 0; violations = 0; worst_slack = infinity }

let observe r ~measured ~bound =
  let slack = bound -. measured in
  {
    samples = r.samples + 1;
    violations = (r.violations + if slack < 0. then 1 else 0);
    worst_slack = Float.min r.worst_slack slack;
  }

let iwfq_of ?params setups =
  let flows = Core.Presets.flows_of setups in
  let iwfq = Core.Iwfq.create ?params flows in
  (iwfq, Core.Iwfq.instance iwfq, flows)

(* One simulator run with an optional hook and trace: every verifier below
   samples a run through one or the other. *)
let run ~predictor ?hook ?trace ~horizon setups sched =
  Core.Sim_config.v ~horizon setups
  |> Core.Sim_config.with_predictor predictor
  |> (match hook with Some h -> Core.Sim_config.with_hook h | None -> Fun.id)
  |> (match trace with Some tr -> Core.Sim_config.with_trace tr | None -> Fun.id)
  |> Core.Sim_config.run sched

let check_fact1 ?params ~horizon ~make_setups ~predictor () =
  let setups = make_setups () in
  let iwfq, sched, flows = iwfq_of ?params setups in
  let n = Array.length flows in
  let p =
    match params with Some p -> p | None -> Core.Params.iwfq_defaults ~n_flows:n
  in
  (* One packet per flow of packetization slack on top of B. *)
  let bound = p.Core.Params.lag_total +. float_of_int n in
  let report = ref empty_report in
  let hook ~slot:_ ~selected:_ ~states:_ ~metrics:_ ~predicted_good:_ =
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. Float.max 0. (Core.Iwfq.lag iwfq ~flow:i)
    done;
    report := observe !report ~measured:!total ~bound
  in
  ignore (run ~predictor ~hook ~horizon setups sched);
  !report

(* Run a scenario and sample each flow's cumulative delivered-packet curve. *)
let delivered_curve ?params ~horizon ~predictor setups ~flow =
  let _iwfq, sched, _flows = iwfq_of ?params setups in
  let curve = Array.make horizon 0 in
  let hook ~slot ~selected:_ ~states:_ ~metrics ~predicted_good:_ =
    curve.(slot) <- Core.Metrics.delivered metrics ~flow
  in
  ignore (run ~predictor ~hook ~horizon setups sched);
  curve

let error_free_setups setups =
  Array.map
    (fun s ->
      { s with Core.Simulator.channel = Wfs_channel.Error_free.create () })
    setups

let check_long_term_throughput ?params ~horizon ~shift ~make_setups ~predictor
    ~flow () =
  if shift < 0 then Wfs_util.Error.invalid "Verify.check_long_term_throughput" "negative shift";
  let errored =
    delivered_curve ?params ~horizon ~predictor (make_setups ()) ~flow
  in
  let reference =
    delivered_curve ?params ~horizon ~predictor
      (error_free_setups (make_setups ()))
      ~flow
  in
  let report = ref empty_report in
  for t = 0 to horizon - 1 - shift do
    report :=
      observe !report
        ~measured:(float_of_int reference.(t))
        ~bound:(float_of_int errored.(t + shift))
  done;
  !report

let delivery_times ?params ~horizon ~predictor setups ~flow =
  let _iwfq, sched, _flows = iwfq_of ?params setups in
  let trace = Tracelog.create () in
  ignore (run ~predictor ~trace ~horizon setups sched);
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun { Tracelog.slot; event } ->
      match event with
      | Tracelog.Transmit_ok { flow = f; seq; _ } when f = flow ->
          Hashtbl.replace tbl seq slot
      | _ -> ())
    (Tracelog.events trace);
  tbl

let system_of ?params flows =
  let n = Array.length flows in
  let p =
    match params with Some p -> p | None -> Core.Params.iwfq_defaults ~n_flows:n
  in
  Theorems.make
    ~weights:(Array.map (fun (f : Core.Params.flow) -> f.weight) flows)
    ~lag_total:p.Core.Params.lag_total ~lead:p.Core.Params.lead

let check_new_queue_delay ?params ~horizon ~make_setups ~predictor ~flow () =
  let setups = make_setups () in
  let _iwfq, sched, flows = iwfq_of ?params setups in
  let system = system_of ?params flows in
  let bound = Theorems.new_queue_delay system ~flow +. 1. in
  let trace = Tracelog.create () in
  ignore (run ~predictor ~trace ~horizon setups sched);
  (* Replay the trace to find packets that arrived at an empty queue. *)
  let queue = Array.make (Array.length flows) 0 in
  let new_queue_seqs = Hashtbl.create 64 in
  let report = ref empty_report in
  List.iter
    (fun { Tracelog.event; _ } ->
      match event with
      | Tracelog.Arrival { flow = f; seq } ->
          if f = flow && queue.(f) = 0 then Hashtbl.replace new_queue_seqs seq ();
          queue.(f) <- queue.(f) + 1
      | Tracelog.Transmit_ok { flow = f; seq; delay } ->
          queue.(f) <- queue.(f) - 1;
          if f = flow && Hashtbl.mem new_queue_seqs seq then
            report := observe !report ~measured:(float_of_int delay) ~bound
      | Tracelog.Drop { flow = f; _ } -> queue.(f) <- queue.(f) - 1
      | Tracelog.Transmit_fail _ | Tracelog.Slot_idle | Tracelog.Swap _
      | Tracelog.Credit _ | Tracelog.Frame_start _ ->
          ())
    (Tracelog.events trace);
  !report

let check_short_term_throughput ?params ~horizon ~window ~make_setups ~predictor
    ~flow () =
  if window <= 0 then
    Wfs_util.Error.invalid "Verify.check_short_term_throughput" "window must be > 0";
  let setups = make_setups () in
  let iwfq, sched, flows = iwfq_of ?params setups in
  let n = Array.length flows in
  let system = system_of ?params flows in
  let report = ref empty_report in
  (* Window state: lags/lead are snapshotted at the window start, exactly
     the [b_j(t)] and [l_e(t)] of the theorem. *)
  let start_delivered = ref 0 in
  let continuously_backlogged = ref true in
  let good_slots = ref 0 in
  let start_lags = Array.make n 0. in
  let start_lead = ref 0. in
  let slots_in_window = ref 0 in
  let hook ~slot:_ ~selected:_ ~states:_ ~metrics ~predicted_good:_ =
    if !slots_in_window = 0 then begin
      start_delivered := Core.Metrics.delivered metrics ~flow;
      continuously_backlogged := true;
      good_slots := 0;
      for i = 0 to n - 1 do
        start_lags.(i) <- Float.max 0. (Core.Iwfq.lag iwfq ~flow:i)
      done;
      start_lead := Float.max 0. (-.Core.Iwfq.lag iwfq ~flow)
    end;
    if sched.Core.Wireless_sched.queue_length flow = 0 then
      continuously_backlogged := false;
    if
      Wfs_channel.Channel.state_is_good
        (Wfs_channel.Channel.state setups.(flow).Core.Simulator.channel)
    then incr good_slots;
    incr slots_in_window;
    if !slots_in_window >= window then begin
      if !continuously_backlogged then begin
        let delivered =
          float_of_int (Core.Metrics.delivered metrics ~flow - !start_delivered)
        in
        let theorem_bound =
          Theorems.throughput_short_term system ~flow ~good_slots:!good_slots
            ~lags:start_lags ~lead_now:!start_lead
        in
        (* slack = delivered − theorem lower bound must be ≥ 0 *)
        report := observe !report ~measured:theorem_bound ~bound:delivered
      end;
      slots_in_window := 0
    end
  in
  ignore (run ~predictor ~hook ~horizon setups sched);
  !report

let check_error_free_delay ?params ~horizon ~make_setups ~predictor ~flow () =
  let setups = make_setups () in
  let n = Array.length setups in
  let p =
    match params with Some p -> p | None -> Core.Params.iwfq_defaults ~n_flows:n
  in
  let bound = p.Core.Params.lag_total +. 1. in
  let errored = delivery_times ?params ~horizon ~predictor setups ~flow in
  let reference =
    delivery_times ?params ~horizon ~predictor (error_free_setups (make_setups ()))
      ~flow
  in
  let report = ref empty_report in
  (* lint: allow R1 -- bindings are sorted by seq immediately below, so hash order never reaches the report *)
  Hashtbl.fold (fun seq t_ref acc -> (seq, t_ref) :: acc) reference [] (* analyze: allow A1 -- hash order is erased by the Int.compare sort on the next line *)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (seq, t_ref) ->
         match Hashtbl.find_opt errored seq with
         | Some t_err ->
             report :=
               observe !report ~measured:(float_of_int (t_err - t_ref)) ~bound
         | None -> ());
  !report

module Json = Wfs_util.Json

let report_to_json r =
  Json.Obj
    [
      ("samples", Json.Int r.samples);
      ("violations", Json.Int r.violations);
      ("worst_slack", Json.of_float_ext r.worst_slack);
    ]

let report_of_json v =
  let ( let* ) = Option.bind in
  let* samples = Option.bind (Json.member "samples" v) Json.to_int in
  let* violations = Option.bind (Json.member "violations" v) Json.to_int in
  let* worst_slack =
    Option.bind (Json.member "worst_slack" v) Json.to_float_ext
  in
  Some { samples; violations; worst_slack }
