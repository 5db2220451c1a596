let create ~rng ~good_prob =
  if good_prob < 0. || good_prob > 1. then
    Wfs_util.Error.invalid "Bernoulli_ch.create" "good_prob must lie in [0,1]";
  let step _slot =
    if Wfs_util.Rng.bernoulli rng good_prob then Channel.Good else Channel.Bad
  in
  let bulk lo hi =
    if Wfs_util.Rng.bernoulli_run rng good_prob ~len:(hi - lo + 1) then
      Channel.Good
    else Channel.Bad
  in
  Channel.make ~label:(Printf.sprintf "bernoulli(%g)" good_prob) ~bulk step
