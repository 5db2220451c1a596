type probe = {
  virtual_time : (unit -> float) option;
  finish_tag : (int -> float) option;
  credit : (int -> int * int * int) option;
  lag_sum : (unit -> int) option;
  work_conserving : bool;
}

let no_probe =
  {
    virtual_time = None;
    finish_tag = None;
    credit = None;
    lag_sum = None;
    work_conserving = false;
  }

type carry = { lag : float; credit : int }

let carry_zero = { lag = 0.; credit = 0 }

type handoff = {
  export : flow:int -> carry;
  import : flow:int -> carry -> carry;
}

type quiescent = {
  backlog_empty : unit -> bool;
  advance_quiescent : now:int -> slots:int -> int;
}

type instance = {
  name : string;
  enqueue : slot:int -> Wfs_traffic.Packet.t -> unit;
  arrive : slot:int -> flow:int -> seq:int -> count:int -> unit;
  select : slot:int -> predicted_good:(int -> bool) -> int option;
  packets : int -> Wfs_traffic.Packet.Ring.t;
  complete : flow:int -> unit;
  fail : flow:int -> unit;
  drop_head : flow:int -> unit;
  queue_length : int -> int;
  on_slot_end : slot:int -> unit;
  probe : probe;
  handoff : handoff option;
  quiescent : quiescent option;
}

let head_expired s ~flow ~now ~bound =
  let q = s.packets flow in
  (not (Wfs_traffic.Packet.Ring.is_empty q))
  && now - Wfs_traffic.Packet.Ring.head_arrival q > bound
