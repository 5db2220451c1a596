(* The well-covered scheduler: registered, wires a live probe field, and
   the fixture test role references it — every A3 audit is satisfied. *)

module Sched = Wfs_core.Wireless_sched
module Packet = Wfs_traffic.Packet

type t = { q : Packet.Ring.t; mutable served : int }

let create () = { q = Packet.Ring.create (); served = 0 }
let pop t = if not (Packet.Ring.is_empty t.q) then Packet.Ring.pop_front t.q

let instance t =
  {
    Sched.name = "FIXTURE-PROBED";
    enqueue = (fun ~slot:_ pkt -> Packet.Ring.push t.q pkt);
    arrive =
      (fun ~slot ~flow:_ ~seq ~count ->
        Packet.Ring.push_run t.q ~seq ~arrival:slot ~count);
    select =
      (fun ~slot:_ ~predicted_good:_ ->
        if Packet.Ring.is_empty t.q then None else Some 0);
    packets = (fun _ -> t.q);
    complete =
      (fun ~flow:_ ->
        t.served <- t.served + 1;
        pop t);
    fail = (fun ~flow:_ -> ());
    drop_head = (fun ~flow:_ -> pop t);
    queue_length = (fun _ -> Packet.Ring.length t.q);
    on_slot_end = (fun ~slot:_ -> ());
    probe =
      {
        Sched.no_probe with
        lag_sum = Some (fun () -> t.served);
        work_conserving = true;
      };
    handoff = None;
    quiescent = None;
  }

let register () =
  Wfs_core.Registry.register
    {
      Wfs_core.Registry.name = "FIXTURE-PROBED";
      aliases = [];
      predictor = Wfs_channel.Predictor.Blind;
      make =
        (fun ?credit_limit:_ ?debit_limit:_ ?limits:_ _flows ->
          instance (create ()));
    }
