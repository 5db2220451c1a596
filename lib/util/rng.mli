(** Deterministic pseudo-random number generation for simulations.

    Every stochastic component of the simulator (arrival processes, channel
    models, contention back-off) owns its own [Rng.t] stream, derived from a
    master seed by {!split}.  This makes experiments reproducible and lets a
    single component be re-run in isolation with an identical sample path. *)

type t
(** A self-contained PRNG stream (xoshiro256**, seeded via splitmix64). *)

val create : int -> t
(** [create seed] makes a fresh stream from an integer seed.  Streams created
    from distinct seeds are statistically independent for simulation
    purposes. *)

val split : t -> t
(** [split rng] derives a new independent stream from [rng], advancing
    [rng].  Used to give each flow/channel its own stream from one master. *)

val copy : t -> t
(** [copy rng] duplicates the current state, yielding a stream that will
    produce the same future draws as [rng]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float rng] draws uniformly from [\[0,1)] with 53-bit resolution. *)

val int : t -> int -> int
(** [int rng n] draws uniformly from [0 .. n-1].  [n] must be positive. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p].  Allocates
    nothing. *)

val exponential : t -> rate:float -> float
(** [exponential rng ~rate] draws from Exp(rate); mean [1/rate].
    [rate] must be positive. *)

val poisson : t -> mean:float -> int
(** [poisson rng ~mean] draws a Poisson variate.  Uses inversion for small
    means ({!poisson_knuth} with [limit = exp (-. mean)]) and normal
    approximation fallback above 500 to stay O(mean). *)

val poisson_knuth : t -> limit:float -> int
(** [poisson_knuth rng ~limit] is Knuth's sequential inversion for a
    Poisson variate of mean [m], given [limit = exp (-. m)]: the number of
    uniform draws taken before their running product falls to [limit] or
    below, the last draw not counted.  A source that samples the same mean
    every slot computes [limit] once.  Allocates nothing. *)

val geometric : t -> p:float -> int
(** [geometric rng ~p] is the number of failures before the first success in
    Bernoulli(p) trials (support 0, 1, 2, ...).  [p] must be in (0,1]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw from [\[lo, hi)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
