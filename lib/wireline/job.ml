type t = { flow : int; seq : int; arrival : float; size : float }

let make ~flow ~seq ~arrival ~size =
  if size <= 0. then Wfs_util.Error.invalid "Job.make" "size must be > 0";
  if arrival < 0. then Wfs_util.Error.invalid "Job.make" "negative arrival";
  { flow; seq; arrival; size }
