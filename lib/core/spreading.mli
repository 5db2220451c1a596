(** WF²Q slot spreading for WPS frames (Section 7).

    Given per-flow effective weights, produce the order in which the frame's
    slots are allocated.  The allocation equals the service order WF²Q would
    give when every flow is continuously backlogged: slot [k] of flow [i]
    has virtual start [k/w_i] and finish [(k+1)/w_i]; at each frame position
    the eligible slot (start ≤ elapsed fraction of the frame) with the
    smallest finish tag is placed.  Errors and bursts being the norm,
    spreading a flow's slots evenly across the frame minimises the damage
    of an error burst hitting consecutive slots (requirement (d) of
    Section 7). *)

val frame : weights:int array -> int array
(** [frame ~weights] returns flow ids, one per slot, of length
    [Σ max(weights, 0)]; flows with weight ≤ 0 receive no slots (WPS's
    "ignore flows with effective weight < 0").
    Deterministic: ties break toward the lower flow id. *)

val spread :
  ids:int array ->
  weights:int array ->
  members:int ->
  sent:int array ->
  out:int array ->
  int
(** [spread ~ids ~weights ~members ~sent ~out] is {!frame} over a compact
    member list, written into caller-owned buffers: the frame builder's
    kernel, which allocates nothing.  The first [members] cells of [ids]
    hold strictly ascending flow ids and those of [weights] their
    effective weights (≤ 0: no slots).  It writes the frame into
    [out.(0 .. len-1)] and returns [len = Σ max(weights.(k), 0)].  The
    frame is identical (including tie-breaks) to {!frame} on the dense
    weight array in which every absent flow has weight 0, but costs
    O(len·members) instead of O(len·n_flows).  [sent] is scratch with at
    least [members] cells; cells of the buffers past those read or
    written are left alone.
    @raise Wfs_util.Error.Error on unsorted ids or a buffer too short. *)

val is_spread_of : weights:int array -> int array -> bool
(** Check that a sequence contains exactly [w_i] slots of each flow [i] —
    used by tests and the MAC layer to validate externally supplied
    frames. *)
