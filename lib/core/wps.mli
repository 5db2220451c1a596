(** Wireless Packet Scheduling — the paper's practical algorithm
    (Section 7) and its ablated variants (Section 8).

    WPS is a weighted round robin over the known backlogged flows with four
    mechanisms layered on top, each switchable through {!Params.wps}:

    - {b spreading}: each frame's slots are laid out in WF²Q order of the
      flows' effective weights ({!Spreading});
    - {b intra-frame swapping}: a flow whose slot is (predicted) in error
      exchanges positions with a later in-frame flow that has a good
      channel;
    - {b credit/debit adjustment}: when swapping fails, the slot is handed
      to the next good backlogged flow on a marker ring and the accounts
      are settled through per-frame attempt counts ({!Credit});
    - {b prediction}: the channel state used for the above is supplied by
      the caller (perfect, one-step or blind — see
      {!Wfs_channel.Predictor}).

    Variant map (Table 1's row labels):
    Blind WRR = {!Params.blind_wrr}, WRR-I/P = {!Params.wrr},
    NoSwap = {!Params.noswap}, SwapW = {!Params.swapw},
    SwapA = full WPS = {!Params.swapa}. *)

type t

val create :
  ?params:Params.wps ->
  ?limits:(int * int) array ->
  ?naive:bool ->
  ?trace:Tracelog.t ->
  Params.flow array ->
  t
(** Flow ids must be [0..n-1]; weights are rounded to integers ≥ 1 for
    frame allocation.  Default params: {!Params.swapa}[ ()].
    [limits] overrides the global (credit, debit) caps per flow — the knob
    Example 6 sweeps to trade one flow's loss against the others'.
    [naive] (default [false], for differential testing only) rebuilds
    frames with the original dense whole-flow-array scans instead of the
    backlogged-flow index; both modes are byte-identical by construction
    and pinned to each other by the qcheck suite. *)

val instance : t -> Wireless_sched.instance

val credit : t -> flow:int -> int
(** Current credit balance (0 when credits are disabled). *)

val effective_weight : t -> flow:int -> int
(** Effective weight in the current frame (0 when not in the frame). *)

val frame_snapshot : t -> int array
(** Remaining slot allocation of the current frame, for tests; [-1] marks
    deleted slots. *)

val frame_position : t -> int
