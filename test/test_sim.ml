(* Tests for the simulator's structured event trace (Wfs_core.Tracelog). *)

module Tracelog = Wfs_core.Tracelog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_tracelog_basic () =
  let t = Tracelog.create () in
  Tracelog.record t ~slot:0 (Tracelog.Arrival { flow = 1; seq = 0 });
  Tracelog.record t ~slot:1 Tracelog.Slot_idle;
  Tracelog.record t ~slot:2 (Tracelog.Transmit_ok { flow = 1; seq = 0; delay = 2 });
  check_int "3 events" 3 (List.length (Tracelog.events t));
  check_int "1 idle" 1
    (Tracelog.count t (fun e -> e.Tracelog.event = Tracelog.Slot_idle));
  let arrivals =
    Tracelog.filter t (fun e ->
        match e.Tracelog.event with Tracelog.Arrival _ -> true | _ -> false)
  in
  check_int "arrival at slot 0" 0 (List.hd arrivals).Tracelog.slot

let test_tracelog_disabled () =
  let t = Tracelog.create ~enabled:false () in
  Tracelog.record t ~slot:0 Tracelog.Slot_idle;
  check_int "records nothing" 0 (List.length (Tracelog.events t));
  check_bool "reports disabled" false (Tracelog.enabled t)

let test_tracelog_clear () =
  let t = Tracelog.create () in
  Tracelog.record t ~slot:0 Tracelog.Slot_idle;
  Tracelog.clear t;
  check_int "cleared" 0 (List.length (Tracelog.events t))

let test_tracelog_pp () =
  let s = Format.asprintf "%a" Tracelog.pp_event (Tracelog.Swap { from_flow = 1; to_flow = 2 }) in
  Alcotest.(check string) "pp swap" "swap f1->f2" s

let suite =
  [
    ("tracelog basic", `Quick, test_tracelog_basic);
    ("tracelog disabled", `Quick, test_tracelog_disabled);
    ("tracelog clear", `Quick, test_tracelog_clear);
    ("tracelog pp", `Quick, test_tracelog_pp);
  ]
