module Error = Wfs_util.Error

type t = {
  mutable prev_virtual_time : float option;
  mutable prev_lag_sum : int option;
}

let create () = { prev_virtual_time = None; prev_lag_sum = None }

let fg = Printf.sprintf "%.17g"

let violation ~slot ~sched ~paper what context =
  Error.invariant_violation ~who:"Invariant.check"
    ~context:
      (("slot", string_of_int slot)
      :: ("scheduler", sched.Wireless_sched.name)
      :: ("paper", paper)
      :: context)
    what

let check_virtual_time t ~slot ~sched f =
  let v = f () in
  if not (Float.is_finite v) then
    violation ~slot ~sched ~paper:"Section 4.1"
      "virtual time is not finite"
      [ ("virtual_time", fg v) ];
  (match t.prev_virtual_time with
  | Some prev when v < prev ->
      violation ~slot ~sched ~paper:"Section 4.1"
        "virtual time regressed"
        [ ("virtual_time", fg v); ("previous", fg prev) ]
  | Some _ | None -> ());
  t.prev_virtual_time <- Some v

let check_finish_tags ~slot ~sched ~n_flows f =
  for flow = 0 to n_flows - 1 do
    let tag = f flow in
    if Float.is_nan tag then
      violation ~slot ~sched ~paper:"Section 4.1"
        "finish tag is NaN"
        [ ("flow", string_of_int flow) ];
    if sched.Wireless_sched.queue_length flow > 0 && not (Float.is_finite tag)
    then
      violation ~slot ~sched ~paper:"Section 4.1"
        "backlogged flow has non-finite finish tag"
        [ ("flow", string_of_int flow); ("finish_tag", fg tag) ]
  done

let check_credits ~slot ~sched ~n_flows f =
  for flow = 0 to n_flows - 1 do
    let balance, credit_limit, debit_limit = f flow in
    if balance > credit_limit || balance < -debit_limit then
      violation ~slot ~sched ~paper:"Section 7"
        "credit balance outside [-debit_limit, credit_limit]"
        [
          ("flow", string_of_int flow);
          ("balance", string_of_int balance);
          ("credit_limit", string_of_int credit_limit);
          ("debit_limit", string_of_int debit_limit);
        ]
  done

let check_lag_sum t ~slot ~sched f =
  let sum = f () in
  (match t.prev_lag_sum with
  | Some prev ->
      let delta = sum - prev in
      if delta < 0 || delta > 1 then
        violation ~slot ~sched ~paper:"Section 5"
          "sum of lags changed by more than one transmission's worth"
          [
            ("lag_sum", string_of_int sum);
            ("previous", string_of_int prev);
            ("delta", string_of_int delta);
          ]
  | None -> ());
  t.prev_lag_sum <- Some sum

let check_work_conserving ~slot ~sched ~n_flows ~predicted_good =
  let serviceable = ref None in
  for flow = 0 to n_flows - 1 do
    if
      Option.is_none !serviceable
      && sched.Wireless_sched.queue_length flow > 0
      && predicted_good flow
    then serviceable := Some flow
  done;
  match !serviceable with
  | Some flow ->
      violation ~slot ~sched ~paper:"Sections 4-5"
        "idle slot while a backlogged flow was predicted clean"
        [ ("flow", string_of_int flow) ]
  | None -> ()

(* Stateless, unlike the per-run monitors above: every handoff import is
   judged against only the carry it was offered. *)
let check_carry ~who ~context ~(carried : Wireless_sched.carry)
    ~(accepted : Wireless_sched.carry) =
  let lag_ok =
    (* the sign product is >= 0 when either side is zero, so this single
       inequality covers both "same sign" and "declined entirely"; the
       +0.5 slack is the half-transmission of rounding the §5 import
       hook is allowed *)
    accepted.lag *. carried.lag >= 0.
    && Float.abs accepted.lag <= Float.abs carried.lag +. 0.5
  in
  let credit_ok =
    (* §7 credits are integral — no rounding, so no slack *)
    accepted.credit * carried.credit >= 0
    && abs accepted.credit <= abs carried.credit
  in
  if not (lag_ok && credit_ok) then
    Error.invariant_violation ~who "handoff import exceeds carried state"
      ~context:
        ((("paper", "Section 5 / Section 7") :: context)
        @ [
            ("carried-lag", fg carried.lag);
            ("accepted-lag", fg accepted.lag);
            ("carried-credit", string_of_int carried.credit);
            ("accepted-credit", string_of_int accepted.credit);
          ])

let check t ~slot ~sched ~n_flows ~predicted_good ~selected =
  let probe = sched.Wireless_sched.probe in
  Option.iter (check_virtual_time t ~slot ~sched) probe.virtual_time;
  Option.iter (check_finish_tags ~slot ~sched ~n_flows) probe.finish_tag;
  Option.iter (check_credits ~slot ~sched ~n_flows) probe.credit;
  Option.iter (check_lag_sum t ~slot ~sched) probe.lag_sum;
  if probe.work_conserving && Option.is_none selected then
    check_work_conserving ~slot ~sched ~n_flows ~predicted_good

let hook sched : Simulator.hook =
  let t = create () in
  fun ~slot ~selected ~states ~metrics:_ ~predicted_good ->
    check t ~slot ~sched ~n_flows:(Array.length states) ~predicted_good
      ~selected
