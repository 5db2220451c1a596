(* A builder value is the validated config record itself: every [with_]
   step is a functional update, so [to_config] is free. *)
type t = Simulator.config

let v ~horizon (flows : Simulator.flow_setup array) : t =
  if horizon < 0 then Wfs_util.Error.invalid "Sim_config.v" "negative horizon";
  if Array.length flows = 0 then Wfs_util.Error.invalid "Sim_config.v" "no flows";
  Array.iteri
    (fun i (fs : Simulator.flow_setup) ->
      if fs.flow.Params.id <> i then Wfs_util.Error.invalid_flow_ids "Sim_config.v")
    flows;
  {
    Simulator.flows;
    predictor = Wfs_channel.Predictor.One_step;
    horizon;
    trace = None;
    hooks = [];
    profiler = None;
    histograms = false;
    fast_path = false;
    skip_stats = None;
  }

let with_predictor predictor (t : t) = { t with Simulator.predictor }

let with_trace trace (t : t) = { t with Simulator.trace = Some trace }
let with_hook h (t : t) = { t with Simulator.hooks = t.hooks @ [ h ] }
let with_profiler h (t : t) = { t with Simulator.profiler = Some h }
let with_histograms (t : t) = { t with Simulator.histograms = true }
let with_fast_path fast_path (t : t) = { t with Simulator.fast_path }
let with_skip_stats k (t : t) = { t with Simulator.skip_stats = Some k }

let to_config (t : t) = t
let run sched (t : t) = Simulator.run t sched

let start ?metrics ?first_slot sched (t : t) =
  Simulator.Session.create ?metrics ?first_slot t sched
