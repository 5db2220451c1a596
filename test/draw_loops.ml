(* The per-draw loops behind {!Wfs_util.Rng}'s draw kernels: each makes
   its draws one reader call at a time, so the stream's state is loaded
   and stored once per draw.  They are the loops the kernels replaced in
   the traffic sources and channels, and the oracle that test_perf_opt's
   bit-exact property holds every kernel to: same result, same pending
   count, same stream position afterwards. *)

module Rng = Wfs_util.Rng

let poisson_knuth rng ~limit =
  let k = ref 0 in
  let p = ref (Rng.float rng) in
  while !p > limit do
    incr k;
    p := !p *. Rng.float rng
  done;
  !k

let knuth_scan rng ~limit ~len ~pending =
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < len do
    let k = poisson_knuth rng ~limit in
    if k > 0 then begin
      pending := k;
      found := !i
    end;
    incr i
  done;
  !found

let flip_run rng state ~p_true ~p_false ~len ~until_true =
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < len do
    let p = if !state then p_true else p_false in
    if Rng.bernoulli rng p then state := not !state;
    if until_true && !state then found := !i;
    incr i
  done;
  !found

let bernoulli_run rng p ~len =
  let last = ref false in
  for _ = 1 to len do
    last := Rng.bernoulli rng p
  done;
  !last
