(* A builder value is the validated config record itself: every [with_]
   step is a functional update, so [to_config] is free and the legacy
   [Simulator.config] constructor trivially produces the same values. *)
type t = Simulator.config

let v ~horizon flows = Simulator.config ~horizon flows

let with_predictor predictor (t : t) = { t with Simulator.predictor }

let with_trace trace (t : t) = { t with Simulator.trace = Some trace }
let with_observer f (t : t) = { t with Simulator.observer = Some f }
let with_probe probe (t : t) = { t with Simulator.slot_probe = Some probe }
let with_profiler h (t : t) = { t with Simulator.profiler = Some h }
let with_histograms (t : t) = { t with Simulator.histograms = true }
let with_invariants (t : t) = { t with Simulator.invariants = true }
let with_fast_path fast_path (t : t) = { t with Simulator.fast_path }
let with_skip_stats k (t : t) = { t with Simulator.skip_stats = Some k }

let to_config (t : t) = t
let run sched (t : t) = Simulator.run t sched

let start ?metrics ?first_slot sched (t : t) =
  Simulator.Session.create ?metrics ?first_slot t sched
