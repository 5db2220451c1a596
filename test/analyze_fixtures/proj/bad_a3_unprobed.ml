(* A registered scheduler with no probe wiring: the instance ships with
   no_probe, so the invariant monitors cannot observe it — and nothing in
   the test role references it, so lockstep coverage is missing too.
   [register] is compiled, never executed; reachability is what A3 checks. *)

module Sched = Wfs_core.Wireless_sched
module Packet = Wfs_traffic.Packet

type t = { q : Packet.Ring.t }

let create () = { q = Packet.Ring.create () }
let pop t = if not (Packet.Ring.is_empty t.q) then Packet.Ring.pop_front t.q

let instance t =
  {
    Sched.name = "FIXTURE-UNPROBED";
    enqueue = (fun ~slot:_ pkt -> Packet.Ring.push t.q pkt);
    arrive =
      (fun ~slot ~flow:_ ~seq ~count ->
        Packet.Ring.push_run t.q ~seq ~arrival:slot ~count);
    select =
      (fun ~slot:_ ~predicted_good:_ ->
        if Packet.Ring.is_empty t.q then None else Some 0);
    packets = (fun _ -> t.q);
    complete = (fun ~flow:_ -> pop t);
    fail = (fun ~flow:_ -> ());
    drop_head = (fun ~flow:_ -> pop t);
    queue_length = (fun _ -> Packet.Ring.length t.q);
    on_slot_end = (fun ~slot:_ -> ());
    probe = Sched.no_probe;
    handoff = None;
    quiescent = None;
  }

let register () =
  Wfs_core.Registry.register
    {
      Wfs_core.Registry.name = "FIXTURE-UNPROBED";
      aliases = [];
      predictor = Wfs_channel.Predictor.Blind;
      make =
        (fun ?credit_limit:_ ?debit_limit:_ ?limits:_ _flows ->
          instance (create ()));
    }
