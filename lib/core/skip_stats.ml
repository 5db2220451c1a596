(* Fast-path skip telemetry.

   The event-compressed engine (Simulator.advance_fast) absorbs runs of
   quiescent slots in closed form.  This module counts those absorptions at
   WINDOW granularity — one update per absorbed window, never per slot — so
   attaching a collector does not degenerate the fast path and costs one
   option match per window boundary.  The collector is deliberately excluded
   from the fast-path degeneration condition (see Simulator.config's
   [fast_path] field). *)

type t = {
  mutable absorbed_windows : int;
  mutable absorbed_slots : int;
  mutable declined_windows : int;
  mutable engine_slots : int;
  mutable reference_slots : int;
  mutable max_window : int;
  window_hist : Wfs_util.Stats.Histogram.t;
}

let create () =
  {
    absorbed_windows = 0;
    absorbed_slots = 0;
    declined_windows = 0;
    engine_slots = 0;
    reference_slots = 0;
    max_window = 0;
    window_hist = Wfs_util.Stats.Histogram.create ~bin_width:16. ();
  }

let note_window t ~slots =
  t.absorbed_windows <- t.absorbed_windows + 1;
  t.absorbed_slots <- t.absorbed_slots + slots;
  if slots > t.max_window then t.max_window <- slots;
  Wfs_util.Stats.Histogram.add t.window_hist (float_of_int slots)

let note_declined t = t.declined_windows <- t.declined_windows + 1
let note_engine t ~slots = t.engine_slots <- t.engine_slots + slots
let note_reference t ~slots = t.reference_slots <- t.reference_slots + slots

let absorbed_windows t = t.absorbed_windows
let absorbed_slots t = t.absorbed_slots
let declined_windows t = t.declined_windows
let engine_slots t = t.engine_slots
let reference_slots t = t.reference_slots
let max_window t = t.max_window
let window_hist t = t.window_hist
let total_slots t = t.engine_slots + t.reference_slots

let quiescence_ratio t =
  let total = total_slots t in
  if total = 0 then 0. else float_of_int t.absorbed_slots /. float_of_int total

let compressed t = t.engine_slots > 0 && t.reference_slots = 0

let merge a b =
  let t = create () in
  t.absorbed_windows <- a.absorbed_windows + b.absorbed_windows;
  t.absorbed_slots <- a.absorbed_slots + b.absorbed_slots;
  t.declined_windows <- a.declined_windows + b.declined_windows;
  t.engine_slots <- a.engine_slots + b.engine_slots;
  t.reference_slots <- a.reference_slots + b.reference_slots;
  t.max_window <- Int.max a.max_window b.max_window;
  let h =
    Wfs_util.Stats.Histogram.merge a.window_hist b.window_hist
  in
  {
    t with
    window_hist = h;
  }

let to_json t =
  let open Wfs_util.Json in
  Obj
    [
      ("absorbed_windows", Int t.absorbed_windows);
      ("absorbed_slots", Int t.absorbed_slots);
      ("declined_windows", Int t.declined_windows);
      ("engine_slots", Int t.engine_slots);
      ("reference_slots", Int t.reference_slots);
      ("max_window", Int t.max_window);
      ("window_hist", Wfs_util.Stats.Histogram.to_json t.window_hist);
    ]

let of_json j =
  let open Wfs_util.Json in
  match
    ( member "absorbed_windows" j,
      member "absorbed_slots" j,
      member "declined_windows" j,
      member "engine_slots" j,
      member "reference_slots" j,
      member "max_window" j,
      member "window_hist" j )
  with
  | Some aw, Some asl, Some dw, Some es, Some rs, Some mw, Some wh -> (
      match
        ( to_int aw,
          to_int asl,
          to_int dw,
          to_int es,
          to_int rs,
          to_int mw,
          Wfs_util.Stats.Histogram.of_json wh )
      with
      | ( Some absorbed_windows,
          Some absorbed_slots,
          Some declined_windows,
          Some engine_slots,
          Some reference_slots,
          Some max_window,
          Some window_hist ) ->
          Some
            {
              absorbed_windows;
              absorbed_slots;
              declined_windows;
              engine_slots;
              reference_slots;
              max_window;
              window_hist;
            }
      | _ -> None)
  | _ -> None
