(** Text-file scenario descriptions.

    Lets a cell be described in a small line-oriented format instead of
    code, so workloads can be versioned and shared:

    {v
    # lines starting with # are comments
    horizon 100000
    seed 42
    flow weight=1 drop=retx:2  source=mmpp:0.2    channel=ge:0.07,0.03
    flow weight=1              source=cbr:2       channel=good
    flow weight=2 drop=delay:100 source=poisson:0.25 channel=bernoulli:0.7
    v}

    Flows get ids 0, 1, ... in file order.  Optional per-flow [buffer=N]
    bounds the queue, and [host=N dir=up|down] place the flow for MAC
    simulations ({!Wfs_mac.Mac_sim} via [bin/wfs_mac]).  Sources:
    [cbr:INTERARRIVAL], [poisson:RATE], [mmpp:MEANRATE] (the paper's
    modulating chain), [onoff:P_ON_OFF,P_OFF_ON].  Channels: [good],
    [ge:PG,PE] (Gilbert–Elliott), [bernoulli:GOODPROB],
    [badburst:START,LEN].  Drop policies: [none] (default), [retx:K],
    [delay:D], [retx-delay:K,D].

    Randomness: every stochastic source/channel receives its own stream
    split from the scenario seed, in file order, so a file plus a seed is a
    reproducible experiment.

    A file describes the cell, not the scheduler's channel knowledge: the
    scheduler's registry name fixes its predictor ("-I" perfect, "-P"
    one-step), so a [predictor] line is an error.  Scenario runs go
    through [Wfs_runner.Exec] with a [file:] spec. *)

type direction = Up | Down

type t = {
  setups : Simulator.flow_setup array;
  addrs : (int * direction) array;
      (** per-flow (host, direction) for MAC simulations; defaults to
          [(flow id + 1, Down)] when a flow line has no [host=]/[dir=] *)
  horizon : int;
  seed : int;
}

val parse : ?seed:int -> ?horizon:int -> string -> t
(** Parse scenario text.  Defaults: horizon 100000, seed 42.  A [seed N]
    directive must precede the first [flow] line.
    The optional [seed]/[horizon] arguments override the file's directives
    (used by run specs, which carry their own seed and horizon).
    @raise Wfs_util.Error.Error of kind [Bad_spec] with a [line] context
    entry on malformed input, including a value a constructor rejects
    ([weight=0], [ge:2,0.1]), an out-of-range directive ([horizon -5]) and
    any [predictor] line. *)

val load : ?seed:int -> ?horizon:int -> string -> t
(** [load path] reads and parses a file, with the same overrides as
    {!parse}.
    @raise Wfs_util.Error.Error as {!parse}, or [Sys_error]. *)
