(** Generalized Processor Sharing (fluid fair queueing) reference simulation.

    Exact event-driven simulation of the Parekh–Gallager fluid server: every
    backlogged flow [i] is served simultaneously at instantaneous rate
    [C · r_i / Σ_{j ∈ B(t)} r_j].  Provides:

    - the system virtual time [v(t)] with slope [C / Σ_{j∈B(t)} r_j] during
      busy periods (constant when idle), used by WFQ/WF²Q to stamp tags;
    - per-packet virtual start/finish tags
      [S = max(v(a), F_prev)], [F = S + size/r];
    - exact real-valued fluid departure instants of every packet (the instant
      [v] crosses its finish tag), against which the packetized schedulers'
      Lemma-1 bounds are tested;
    - cumulative fluid service per flow, the [S_i(t1,t2)] of the paper's
      fairness definition (equation 1).

    All mutating calls must be made in non-decreasing time order. *)

type t

type departure = { flow : int; seq : int; finish_tag : float; time : float }

val create : capacity:float -> Flow.t array -> t
(** Flows must have ids [0 .. n-1] in order.
    @raise Invalid_argument otherwise or on non-positive capacity. *)

val arrive : t -> time:float -> flow:int -> size:float -> float * float
(** Register an arrival; returns its [(start_tag, finish_tag)]. *)

val advance_to : t -> float -> unit
(** Advance the fluid system to the given real time, processing all fluid
    departures on the way. *)

val virtual_time : t -> time:float -> float
(** [v(time)]; advances the system to [time]. *)

val service : t -> flow:int -> float
(** Cumulative fluid service (bits) granted to [flow] up to the last
    advanced instant. *)

val backlog : t -> flow:int -> float
(** Fluid backlog (bits not yet served) of [flow] at the last advanced
    instant. *)

val is_backlogged : t -> flow:int -> bool
(** Whether [flow] has unfinished fluid work at the last advanced instant. *)

val backlogged_weight : t -> float
(** Σ of weights of currently backlogged flows (0 when idle). *)

val departures : t -> departure list
(** All fluid departures processed so far, in time order. *)

