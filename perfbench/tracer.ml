(* Spans and per-call counters recorded from outside the libraries, around
   calls into their public functions.  Nothing here runs unless the pass is
   traced: the timed passes see only the four clock reads in [Workloads]. *)

module Sched = Wfs_core.Wireless_sched

(* Bechamel's CLOCK_MONOTONIC stub: noalloc, nanoseconds since an arbitrary
   origin.  Converting straight to [int] keeps the reads allocation-free,
   so wrapping a scheduler adds clock time but no minor-heap words. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  session : int;  (** index of the session the span belongs to *)
  rep : int;  (** pass number *)
  parent : int;  (** enclosing span's id, -1 at the root *)
  start_ns : int;
  end_ns : int;
}

type t = {
  mutable on : bool;
  mutable session : int;
  mutable rep : int;
  mutable next_id : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable spans : span list;  (** completed, newest first *)
}

let create () =
  { on = false; session = 0; rep = 0; next_id = 0; stack = []; spans = [] }

let parent t = match t.stack with p :: _ -> p | [] -> -1

let record t name ~start_ns ~end_ns =
  if t.on then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.spans <-
      { id; name; session = t.session; rep = t.rep; parent = parent t;
        start_ns; end_ns }
      :: t.spans
  end

(* [span t name f] runs [f], recording one span around it when tracing is
   on.  Spans opened inside [f] get this one as their parent. *)
let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = parent t in
    t.stack <- id :: t.stack;
    let start_ns = now_ns () in
    let close () =
      let end_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; session = t.session; rep = t.rep; parent; start_ns; end_ns }
        :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let span_to_json s =
  Wfs_util.Json.(
    Obj
      [
        ("id", Int s.id);
        ("name", Str s.name);
        ("session", Int s.session);
        ("rep", Int s.rep);
        ("parent", Int s.parent);
        ("start_ns", Int s.start_ns);
        ("end_ns", Int s.end_ns);
      ])

(* Spans stay in memory during the run and are written once, at the end. *)
let write t ~path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Wfs_util.Json.to_string ~pretty:false (span_to_json s));
          output_char oc '\n')
        (List.rev t.spans))

(* --- Scheduler boundary ----------------------------------------------------

   The [sched.*] boundaries fire on every slot, so they are kept per session
   as call counts plus total nanoseconds rather than one span per call. *)

type counters = {
  mutable select_calls : int;
  mutable select_ns : int;
  mutable enqueue_calls : int;
  mutable enqueue_ns : int;
  mutable outcome_calls : int;  (** complete + fail + drop_head *)
  mutable outcome_ns : int;
  mutable slot_end_calls : int;
  mutable slot_end_ns : int;
  mutable quiescent_calls : int;
  mutable quiescent_ns : int;
  mutable requested : int;  (** slots asked of advance_quiescent *)
  mutable absorbed : int;  (** slots it absorbed *)
}

let counters () =
  {
    select_calls = 0; select_ns = 0; enqueue_calls = 0; enqueue_ns = 0;
    outcome_calls = 0; outcome_ns = 0; slot_end_calls = 0; slot_end_ns = 0;
    quiescent_calls = 0; quiescent_ns = 0; requested = 0; absorbed = 0;
  }

let sched_ns c =
  c.select_ns + c.enqueue_ns + c.outcome_ns + c.slot_end_ns + c.quiescent_ns

(* A timed copy of [s]: every other field, [probe], [handoff] and
   [quiescent.backlog_empty] included, is the original's. *)
let wrap c (s : Sched.instance) : Sched.instance =
  let outcome f ~flow =
    let t0 = now_ns () in
    f ~flow;
    c.outcome_ns <- c.outcome_ns + (now_ns () - t0);
    c.outcome_calls <- c.outcome_calls + 1
  in
  {
    s with
    enqueue =
      (fun ~slot p ->
        let t0 = now_ns () in
        s.enqueue ~slot p;
        c.enqueue_ns <- c.enqueue_ns + (now_ns () - t0);
        c.enqueue_calls <- c.enqueue_calls + 1);
    select =
      (fun ~slot ~predicted_good ->
        let t0 = now_ns () in
        let r = s.select ~slot ~predicted_good in
        c.select_ns <- c.select_ns + (now_ns () - t0);
        c.select_calls <- c.select_calls + 1;
        r);
    complete = outcome s.complete;
    fail = outcome s.fail;
    drop_head = outcome s.drop_head;
    on_slot_end =
      (fun ~slot ->
        let t0 = now_ns () in
        s.on_slot_end ~slot;
        c.slot_end_ns <- c.slot_end_ns + (now_ns () - t0);
        c.slot_end_calls <- c.slot_end_calls + 1);
    quiescent =
      Option.map
        (fun (q : Sched.quiescent) ->
          {
            q with
            advance_quiescent =
              (fun ~now ~slots ->
                let t0 = now_ns () in
                let k = q.advance_quiescent ~now ~slots in
                c.quiescent_ns <- c.quiescent_ns + (now_ns () - t0);
                c.quiescent_calls <- c.quiescent_calls + 1;
                c.requested <- c.requested + slots;
                c.absorbed <- c.absorbed + k;
                k);
          })
        s.quiescent;
  }
