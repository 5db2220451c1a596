let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0. xs in
    let sumsq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if sumsq <= 0. then 1.0 else sum *. sum /. (float_of_int n *. sumsq)
  end

let max_normalized_gap ~weights ~service =
  let n = Array.length weights in
  if n = 0 || Array.length service <> n then
    Wfs_util.Error.invalid "Fairness.max_normalized_gap" "length mismatch";
  let normalized = Array.mapi (fun i s -> s /. weights.(i)) service in
  let lo = Array.fold_left Float.min infinity normalized in
  let hi = Array.fold_left Float.max neg_infinity normalized in
  hi -. lo

module Monitor = struct
  type t = {
    weights : float array;
    window : int;
    sched : Wireless_sched.instance;
    window_start_service : int array;
    mutable slots_in_window : int;
    mutable all_backlogged : bool;
    mutable windows : int;
    mutable jain_sum : float;
    mutable worst_gap : float;
  }

  let create ~weights ~window ~sched =
    if window <= 0 then Wfs_util.Error.invalid "Fairness.Monitor.create" "window must be > 0";
    {
      weights = Array.copy weights;
      window;
      sched;
      window_start_service = Array.make (Array.length weights) 0;
      slots_in_window = 0;
      all_backlogged = true;
      windows = 0;
      jain_sum = 0.;
      worst_gap = 0.;
    }

  let hook t : Simulator.hook =
   fun ~slot:_ ~selected:_ ~states:_ ~metrics ~predicted_good:_ ->
    let n = Array.length t.weights in
    (* "Backlogged" for the window means every flow had work at every
       sampled slot; we require at least two to make fairness meaningful. *)
    let backlogged = ref 0 in
    for i = 0 to n - 1 do
      if t.sched.Wireless_sched.queue_length i > 0 then incr backlogged
    done;
    if !backlogged < 2 then t.all_backlogged <- false;
    t.slots_in_window <- t.slots_in_window + 1;
    if t.slots_in_window >= t.window then begin
      if t.all_backlogged then begin
        let service =
          Array.init n (fun i ->
              float_of_int
                (Metrics.delivered metrics ~flow:i - t.window_start_service.(i)))
        in
        let normalized = Array.mapi (fun i s -> s /. t.weights.(i)) service in
        t.jain_sum <- t.jain_sum +. jain normalized;
        let gap = max_normalized_gap ~weights:t.weights ~service in
        if gap > t.worst_gap then t.worst_gap <- gap;
        t.windows <- t.windows + 1
      end;
      (* Open the next window. *)
      t.slots_in_window <- 0;
      t.all_backlogged <- true;
      for i = 0 to n - 1 do
        t.window_start_service.(i) <- Metrics.delivered metrics ~flow:i
      done
    end

  let windows_sampled t = t.windows
  let mean_jain t = if t.windows = 0 then 1.0 else t.jain_sum /. float_of_int t.windows
  let worst_gap t = t.worst_gap
end
