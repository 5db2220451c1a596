let create ~rng ~rate =
  if rate < 0. then Wfs_util.Error.invalid "Poisson.create" "negative rate";
  let label = Printf.sprintf "poisson(%g)" rate in
  if rate <= 0. then
    Arrival.make ~label ~mean_rate:rate
      ~next_event:(fun _pending ~from:_ ~upto:_ -> -1)
      (fun _slot -> 0)
  else if rate < 500. then begin
    (* A slot's count is [Rng.poisson]'s Knuth inversion with
       [exp (-.rate)] hoisted out of the per-slot draw: the identical draw
       sequence, without a transcendental per slot.  The event query runs
       those samples slot after slot in one kernel call until one is not
       zero. *)
    let limit = exp (-.rate) in
    let next_event pending ~from ~upto =
      let i = Wfs_util.Rng.knuth_scan rng ~limit ~len:(upto - from) ~pending in
      if i < 0 then -1 else from + i
    in
    Arrival.make ~label ~mean_rate:rate ~next_event (fun _slot ->
        Wfs_util.Rng.poisson_knuth rng ~limit)
  end
  else
    (* [Rng.poisson]'s normal approximation has nothing to hoist, and the
       default event query replays it slot by slot. *)
    Arrival.make ~label ~mean_rate:rate (fun _slot ->
        Wfs_util.Rng.poisson rng ~mean:rate)
