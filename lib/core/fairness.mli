(** Fairness measures for scheduler comparisons.

    The paper's fairness definition (equation 1) requires the {e normalised
    service} [W_i(t1,t2)/r_i] of continuously backlogged flows to be equal
    over any interval.  This module measures how far a packetized, errored
    schedule deviates from that ideal:

    - {!jain} — Jain's fairness index over per-flow normalised service
      (1 = perfectly fair, 1/n = maximally unfair);
    - {!max_normalized_gap} — the worst pairwise
      [|W_i/r_i − W_j/r_j|] over an interval, the quantity equation (1)
      sets to zero;
    - {!Monitor} — an end-of-slot hook that samples both over sliding windows of a
      live simulation, restricted to flows that stayed backlogged through
      the window (the only flows the definition constrains). *)

val jain : float array -> float
(** Jain's index [(Σx)² / (n·Σx²)] over non-negative values; 1.0 for an
    empty or all-zero array (vacuously fair). *)

val max_normalized_gap : weights:float array -> service:float array -> float
(** Worst pairwise normalised-service difference.  Arrays must have equal
    length ≥ 1. *)

module Monitor : sig
  type t

  val create :
    weights:float array ->
    window:int ->
    sched:Wireless_sched.instance ->
    t
  (** Samples windows of [window] slots.  A window contributes a sample
      only if at least two flows were backlogged at every slot of the
      window; service is counted in delivered packets. *)

  val hook : t -> Simulator.hook
  (** Attach with [Sim_config.with_hook].  Reads per-flow delivered
      counts from the metrics and backlog from the scheduler. *)

  val windows_sampled : t -> int

  val mean_jain : t -> float
  (** Mean Jain index over sampled windows; 1.0 when nothing sampled. *)

  val worst_gap : t -> float
  (** Largest normalised-service gap seen in any sampled window, in
      packets-per-unit-weight; 0 when nothing sampled. *)
end
