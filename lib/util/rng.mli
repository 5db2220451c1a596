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
    approximation fallback above 500 to stay O(mean).  Below 500 it
    allocates nothing. *)

val geometric : t -> p:float -> int
(** [geometric rng ~p] is the number of failures before the first success in
    Bernoulli(p) trials (support 0, 1, 2, ...).  [p] must be in (0,1]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw from [\[lo, hi)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** {2 Draw kernels}

    Each kernel below runs a whole loop of draws with the stream's state
    loaded once and stored once.  It takes exactly the draws of the
    per-draw loop its description names, in the same order and with the
    same result, and leaves the stream where that loop leaves it.  None
    allocates. *)

val poisson_knuth : t -> limit:float -> int
(** [poisson_knuth rng ~limit] is Knuth's sequential inversion for a
    Poisson variate of mean [m], given [limit = exp (-. m)]: the number of
    uniform draws taken before their running product falls to [limit] or
    below, the last draw not counted.  A source that samples the same mean
    every slot computes [limit] once.  Per draw:
    [let k = ref 0 and p = ref (float rng) in
     while !p > limit do incr k; p := !p *. float rng done; !k]. *)

val knuth_scan : t -> limit:float -> len:int -> pending:int ref -> int
(** [knuth_scan rng ~limit ~len ~pending] draws up to [len] samples of
    [poisson_knuth rng ~limit], one after the other, and stops at the
    first that is not 0: it stores that sample in [pending] and returns
    its index in [0 .. len - 1].  When all [len] samples are 0 it returns
    [-1] and leaves [pending] alone.  A Poisson source's event query: the
    first non-empty slot of a window. *)

val flip_run :
  t ->
  bool ref ->
  p_true:float ->
  p_false:float ->
  len:int ->
  until_true:bool ->
  int
(** [flip_run rng state ~p_true ~p_false ~len ~until_true] runs up to
    [len] steps of a two-state chain: each step flips [state] when
    [bernoulli rng p] holds, with [p = p_true] while [state] is [true] and
    [p_false] while it is [false].  With [~until_true:true] the run stops
    after the first step that leaves [state] [true] and returns that
    step's index in [0 .. len - 1]; otherwise, or when no step does, it
    runs all [len] steps and returns [-1].  A Gilbert–Elliott channel's
    catch-up and an on-off source's event query. *)

val bernoulli_run : t -> float -> len:int -> bool
(** [bernoulli_run rng p ~len] makes [len] draws of [bernoulli rng p] and
    returns the last, [false] when [len <= 0].  A memoryless channel's
    catch-up. *)
