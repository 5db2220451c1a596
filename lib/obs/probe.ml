module Sched = Wfs_core.Wireless_sched
module Channel = Wfs_channel.Channel
module Error = Wfs_util.Error

(* Handles for the standard instrument set, registered at probe
   construction.  Registration is unconditional (every run of a spec
   registers the same set in the same order) so positional merge across
   replications always lines up; quantities the scheduler does not expose
   simply leave their gauge unset. *)
type standard = {
  samples : Instruments.counter;
  idle : Instruments.counter;
  backlog : Instruments.histogram;
  max_queue : Instruments.gauge;
  vt : Instruments.gauge;
  max_lag : Instruments.gauge;
}

(* let-sequenced, not a record literal: record-field evaluation order is
   unspecified, and registration order is the merge key. *)
let standard reg =
  let samples = Instruments.counter reg "probe.samples" in
  let idle = Instruments.counter reg "probe.idle-slots" in
  let backlog = Instruments.histogram reg "probe.backlog" in
  let max_queue =
    Instruments.gauge ~policy:Instruments.Max reg "probe.max-flow-queue"
  in
  let vt = Instruments.gauge ~policy:Instruments.Last reg "probe.virtual-time" in
  let max_lag = Instruments.gauge ~policy:Instruments.Max reg "probe.max-lag-sum" in
  { samples; idle; backlog; max_queue; vt; max_lag }

let sampler ~stride ~n_flows (sched : Sched.instance) emit :
    Wfs_core.Simulator.hook =
  let p = sched.Sched.probe in
  let tag_of = p.Sched.finish_tag in
  let credit_of = p.Sched.credit in
  let vt_of = p.Sched.virtual_time in
  let lag_of = p.Sched.lag_sum in
  let queue_of = sched.Sched.queue_length in
  fun ~slot ~selected ~states ~metrics:_ ~predicted_good:_ ->
    if slot mod stride = 0 then begin
      let flows =
        Array.init n_flows (fun i ->
            {
              Trace.queue = queue_of i;
              good = Channel.state_is_good states.(i);
              tag = (match tag_of with None -> None | Some f -> Some (f i));
              credit =
                (match credit_of with
                | None -> None
                | Some f ->
                    let balance, _, _ = f i in
                    Some balance);
            })
      in
      let virtual_time =
        match vt_of with None -> None | Some f -> Some (f ())
      in
      let lag_sum = match lag_of with None -> None | Some f -> Some (f ()) in
      emit { Trace.slot; selected; virtual_time; lag_sum; flows }
    end

let create ?(stride = 1) ?(sinks = []) ?instruments ~n_flows
    (sched : Sched.instance) : Wfs_core.Simulator.hook =
  if stride < 1 then Error.bad_config ~who:"Probe.create" "stride must be >= 1";
  if n_flows < 1 then Error.bad_config ~who:"Probe.create" "n_flows must be >= 1";
  let std = Option.map standard instruments in
  sampler ~stride ~n_flows sched (fun (sample : Trace.sample) ->
      List.iter (fun sink -> Sink.write sink sample) sinks;
      match std with
      | None -> ()
      | Some s ->
          Instruments.incr s.samples;
          if Option.is_none sample.selected then Instruments.incr s.idle;
          let total = ref 0 in
          Array.iter
            (fun (f : Trace.flow_sample) ->
              total := !total + f.Trace.queue;
              Instruments.set s.max_queue (float_of_int f.Trace.queue))
            sample.flows;
          Instruments.observe s.backlog (float_of_int !total);
          (match sample.virtual_time with
          | None -> ()
          | Some v -> Instruments.set s.vt v);
          match sample.lag_sum with
          | None -> ()
          | Some l -> Instruments.set s.max_lag (float_of_int l))
