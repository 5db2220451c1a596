let create ~rng ~rate =
  if rate < 0. then Wfs_util.Error.invalid "Poisson.create" "negative rate";
  (* One slot's arrival count.  Below the huge-mean cutoff this is
     [Rng.poisson]'s Knuth inversion with [exp (-.rate)] hoisted out of the
     per-slot draw: the identical draw sequence, without a transcendental
     per slot.  Above it, [Rng.poisson]'s normal approximation has nothing
     to hoist. *)
  let sample =
    if rate > 0. && rate < 500. then begin
      let limit = exp (-.rate) in
      fun () -> Wfs_util.Rng.poisson_knuth rng ~limit
    end
    else fun () -> Wfs_util.Rng.poisson rng ~mean:rate
  in
  let step _slot = sample () in
  let next_event pending =
    if rate <= 0. then fun ~from:_ ~upto:_ -> -1
    else
      fun ~from ~upto ->
        let found = ref (-1) in
        let s = ref from in
        while !found < 0 && !s < upto do
          let k = sample () in
          if k > 0 then begin
            pending := k;
            found := !s
          end;
          incr s
        done;
        !found
  in
  Arrival.make ~label:(Printf.sprintf "poisson(%g)" rate) ~mean_rate:rate
    ~next_event step
