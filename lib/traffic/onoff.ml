let create ~rng ?(packets_per_on_slot = 1) ~p_on_to_off ~p_off_to_on () =
  let check name p =
    if not (p > 0. && p <= 1.) then
      Wfs_util.Error.invalidf "Onoff.create" "%s must be in (0,1]" name
  in
  check "p_on_to_off" p_on_to_off;
  check "p_off_to_on" p_off_to_on;
  if packets_per_on_slot <= 0 then
    Wfs_util.Error.invalid "Onoff.create" "packets_per_on_slot must be > 0";
  let on = ref false in
  let step _slot =
    (* Switch decision at the slot boundary, then emit according to the new
       state, so burst lengths are geometric with the stated parameters. *)
    let p = if !on then p_on_to_off else p_off_to_on in
    if Wfs_util.Rng.bernoulli rng p then on := not !on;
    if !on then packets_per_on_slot else 0
  in
  (* The chain draws one Bernoulli per slot whichever mode it is in, so the
     event query is the stepwise scan, run by the flip kernel up to the
     first slot that ends ON. *)
  let next_event pending ~from ~upto =
    let i =
      Wfs_util.Rng.flip_run rng on ~p_true:p_on_to_off ~p_false:p_off_to_on
        ~len:(upto - from) ~until_true:true
    in
    if i < 0 then -1
    else begin
      pending := packets_per_on_slot;
      from + i
    end
  in
  let p_on = p_off_to_on /. (p_off_to_on +. p_on_to_off) in
  Arrival.make
    ~label:(Printf.sprintf "onoff(%d,%g/%g)" packets_per_on_slot p_on_to_off p_off_to_on)
    ~mean_rate:(float_of_int packets_per_on_slot *. p_on)
    ~next_event step
