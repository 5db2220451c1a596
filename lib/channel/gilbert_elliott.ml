let steady_state_good ~pg ~pe = pg /. (pg +. pe)

let create ~rng ~pg ~pe ?start_good () =
  if pg < 0. || pg > 1. || pe < 0. || pe > 1. then
    Wfs_util.Error.invalid "Gilbert_elliott.create" "pg, pe must lie in [0,1]";
  if pg +. pe <= 0. then Wfs_util.Error.invalid "Gilbert_elliott.create" "pg + pe must be > 0";
  let p_good = steady_state_good ~pg ~pe in
  let good =
    ref
      (match start_good with
      | Some b -> b
      | None -> Wfs_util.Rng.bernoulli rng p_good)
  in
  let step _slot =
    let p_flip = if !good then pe else pg in
    if Wfs_util.Rng.bernoulli rng p_flip then good := not !good;
    if !good then Channel.Good else Channel.Bad
  in
  (* One Bernoulli per slot, slot index unused: the bulk span is the same
     chain run by the flip kernel. *)
  let bulk lo hi =
    let _ : int =
      Wfs_util.Rng.flip_run rng good ~p_true:pe ~p_false:pg ~len:(hi - lo + 1)
        ~until_true:false
    in
    if !good then Channel.Good else Channel.Bad
  in
  let initial = if !good then Channel.Good else Channel.Bad in
  Channel.make ~label:(Printf.sprintf "ge(pg=%g,pe=%g)" pg pe) ~initial ~bulk step

let of_burstiness ~rng ~good_prob ~sum () =
  if not (good_prob > 0. && good_prob < 1.) then
    Wfs_util.Error.invalid "Gilbert_elliott.of_burstiness" "good_prob must be in (0,1)";
  let pg = good_prob *. sum and pe = (1. -. good_prob) *. sum in
  if sum <= 0. || pg > 1. || pe > 1. then
    Wfs_util.Error.invalid "Gilbert_elliott.of_burstiness" "sum out of range";
  create ~rng ~pg ~pe ()
