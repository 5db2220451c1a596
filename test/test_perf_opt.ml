(* Tests for the perf-optimization layer: the Deque, packet ring,
   slot-tag ring, Flow_heap and Flow_set containers against simple
   reference models, and differential lockstep drives pinning each
   backlog-indexed scheduler to its naive O(n) reference implementation
   (the [?naive:true] mode). *)

module Rng = Wfs_util.Rng
module Deque = Wfs_util.Deque
module Flow_heap = Wfs_util.Flow_heap
module Flow_set = Wfs_util.Flow_set
module Packet = Wfs_traffic.Packet
module Core = Wfs_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Deque vs list model --- *)

(* Ops: 0 push_back, 1 push_front, 2 pop_front, 3 pop_back. *)
let apply_deque_op dq model (op, x) =
  match op mod 4 with
  | 0 ->
      Deque.push_back dq x;
      model @ [ x ]
  | 1 ->
      Deque.push_front dq x;
      x :: model
  | 2 -> (
      let popped = Deque.pop_front dq in
      match model with
      | [] ->
          assert (popped = None);
          []
      | h :: tl ->
          assert (popped = Some h);
          tl)
  | _ -> (
      let popped = Deque.pop_back dq in
      match List.rev model with
      | [] ->
          assert (popped = None);
          []
      | h :: tl ->
          assert (popped = Some h);
          List.rev tl)

let prop_deque_model =
  QCheck.Test.make ~name:"deque matches list model under mixed ops" ~count:300
    QCheck.(list (pair small_int small_int))
    (fun ops ->
      let dq = Deque.create ~capacity:1 ~dummy:(-1) () in
      let final =
        List.fold_left (fun model op -> apply_deque_op dq model op) [] ops
      in
      Deque.to_list dq = final && Deque.length dq = List.length final)

let prop_deque_remove_range =
  QCheck.Test.make ~name:"deque remove_range matches list splice" ~count:300
    QCheck.(triple (list small_int) small_int small_int)
    (fun (xs, pos, len) ->
      let dq = Deque.create ~dummy:(-1) () in
      (* Mix of front/back pushes so the ring wraps in interesting ways. *)
      List.iteri
        (fun i x -> if i mod 3 = 0 then Deque.push_front dq x else Deque.push_back dq x)
        xs;
      let model = Deque.to_list dq in
      let n = List.length model in
      let pos = if n = 0 then 0 else pos mod n in
      let len = if n - pos = 0 then 0 else len mod (n - pos) in
      Deque.remove_range dq ~pos ~len;
      let expect =
        List.filteri (fun i _ -> i < pos || i >= pos + len) model
      in
      Deque.to_list dq = expect)

let test_deque_get_and_peeks () =
  let dq = Deque.create ~capacity:2 ~dummy:0 () in
  for i = 1 to 10 do
    Deque.push_back dq i
  done;
  check_int "front" 1 (Option.get (Deque.peek_front dq));
  check_int "back" 10 (Option.get (Deque.peek_back dq));
  for i = 0 to 9 do
    check_int "get" (i + 1) (Deque.get dq i)
  done;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Deque.get: index 10 out of bounds (length 10)")
    (fun () -> ignore (Deque.get dq 10));
  Deque.clear dq;
  check_bool "cleared" true (Deque.is_empty dq)

(* --- Packet ring and slot-tag ring vs list models --- *)

module Ring = Packet.Ring
module Sq = Core.Slot_queue

(* Empty the ring into a list, head first: its only whole-queue read is
   the head. *)
let drain_ring r =
  let rec go acc =
    if Ring.is_empty r then List.rev acc
    else begin
      let p = Ring.head r ~flow:0 in
      Ring.pop_front r;
      go ((p.Packet.seq, p.arrival, p.attempts) :: acc)
    end
  in
  go []

let push_ring r model (seq, arrival, attempts) =
  let p = Packet.make ~flow:0 ~seq ~arrival () in
  p.attempts <- attempts;
  Ring.push r p;
  model @ [ (seq, arrival, attempts) ]

let push_run_ring r model ~seq ~arrival ~count =
  Ring.push_run r ~seq ~arrival ~count;
  model @ List.init count (fun k -> (seq + k, arrival, 0))

(* Ops: 0-1 push a packet of its own slot, 2 pop_front, 3 pop_back, 4 bump
   the head's attempts; then, relative to the newest packet: 5-6 the next
   seq in its slot (joins its run), 7 the next seq in its slot with
   attempts, 8 the next seq in the next slot, 9 a seq gap in its slot;
   10 [push_run] of 1-5 packets from the next seq in its slot, 11 of 1-4
   packets of their own slot. *)
let apply_ring_op r model (op, x) =
  let head_matches () =
    match model with
    | [] -> Ring.is_empty r
    | (seq, arrival, attempts) :: _ ->
        Ring.head_seq r = seq
        && Ring.head_arrival r = arrival
        && Ring.head_attempts r = attempts
  in
  assert (head_matches ());
  let seq, arrival =
    match List.rev model with
    | [] -> (x, x * 3)
    | (seq, arrival, _) :: _ -> (seq + 1, arrival)
  in
  match op mod 12 with
  | 0 | 1 -> push_ring r model (x, x * 3, x mod 4)
  | 10 -> push_run_ring r model ~seq ~arrival ~count:(1 + (x mod 5))
  | 11 -> push_run_ring r model ~seq:x ~arrival:(x * 3) ~count:(1 + (x mod 4))
  | 5 | 6 -> push_ring r model (seq, arrival, 0)
  | 7 -> push_ring r model (seq, arrival, 1 + (x mod 3))
  | 8 -> push_ring r model (seq, arrival + 1, 0)
  | 9 -> push_ring r model (seq + 1, arrival, 0)
  | 2 -> (
      match model with
      | [] -> []
      | _ :: tl ->
          Ring.pop_front r;
          tl)
  | 3 -> (
      match List.rev model with
      | [] -> []
      | _ :: tl ->
          Ring.pop_back r;
          List.rev tl)
  | _ -> (
      match model with
      | [] -> []
      | (seq, arrival, attempts) :: tl ->
          Ring.bump_attempts r;
          (seq, arrival, attempts + 1) :: tl)

let prop_ring_model =
  QCheck.Test.make ~name:"packet ring matches list model under mixed ops" ~count:300
    QCheck.(list (pair small_int small_int))
    (fun ops ->
      let r = Ring.create () in
      let final =
        List.fold_left (fun model op -> apply_ring_op r model op) [] ops
      in
      Ring.length r = List.length final && drain_ring r = final)

(* Deleting a middle range shifts whichever side is shorter; pops before
   the adds make the ring wrap.  Finish tags are 1 apart (weight 1, every
   slot added at v = 0), so [v] picks the lagging prefix exactly. *)
let prop_slot_queue_trim =
  QCheck.Test.make ~name:"slot queue trim_lagging matches list splice" ~count:300
    QCheck.(quad (1 -- 40) (0 -- 20) small_int small_int)
    (fun (n, popped, lag_pick, keep_pick) ->
      let q = Sq.create ~weight:1. ~max_lead:4. in
      for _ = 1 to popped do
        Sq.add q ~v:0.;
        Sq.pop_front q
      done;
      for _ = 1 to n do
        Sq.add q ~v:0.
      done;
      let model = Sq.to_list q in
      let lagging = lag_pick mod (n + 1) in
      let keep = keep_pick mod (lagging + 1) in
      let v = float_of_int (popped + lagging) +. 0.5 in
      let deleted = Sq.trim_lagging q ~v ~max_lagging:keep in
      let expect =
        List.filteri (fun i _ -> i < keep || i >= lagging) model
      in
      deleted = lagging - keep
      && Sq.to_list q = expect
      && Sq.length q = List.length expect)

(* The per-slot semantics the run form must keep, bit for bit: two floats
   per slot, S = max(v, chain) and F = S +. 1/r, a [pop_back] that leaves
   the chain alone, a lag trim that splices out the middle of the lagging
   prefix, and a lead clamp that rewrites the head's two tags. *)
type sq_model = { slots : (float * float) list; chain : float }

let sq_model_add ~weight m ~v =
  let start = Float.max v m.chain in
  let finish = start +. (1. /. weight) in
  { slots = m.slots @ [ (start, finish) ]; chain = finish }

let sq_model_trim m ~v ~max_lagging =
  let lagging = List.length (List.filter (fun (_, f) -> f < v) m.slots) in
  let deleted = Int.max 0 (lagging - max_lagging) in
  let slots =
    List.filteri (fun i _ -> i < max_lagging || i >= lagging) m.slots
  in
  (deleted, { m with slots })

let sq_model_clamp ~weight ~max_lead m ~v =
  match m.slots with
  | (start, _) :: rest when start > v +. (max_lead /. weight) ->
      let limit = v +. (max_lead /. weight) in
      let head = (limit, limit +. (1. /. weight)) in
      let chain = match rest with [] -> snd head | _ -> m.chain in
      (true, { slots = head :: rest; chain })
  | _ -> (false, m)

let same_tags a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s, f) (s', f') ->
         Int64.equal (Int64.bits_of_float s) (Int64.bits_of_float s')
         && Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
       a b

(* Ops, from [(op, a, b)]: 0-3 add with v at or below the chain, 4 add with
   v above it, 5 pop_front, 6 pop_back, 7 trim_lagging with v just above
   the finish of slot [a] and a bound of [b], 8 clamp_lead with v below the
   head's start, 9 add at v = 0, 10 [add_run] of [1 + b mod 16] slots with
   v at, below or above the chain.  The weights 3 and 0.7 make 1/r
   non-dyadic, so a tag computed in closed form (s0 +. k *. 1/r) instead of
   by the additions [add] performed reads different bits. *)
let prop_slot_queue_model =
  QCheck.Test.make ~name:"slot queue runs match per-slot tags bit for bit"
    ~count:500
    QCheck.(
      pair (pair bool (0 -- 2))
        (list_of_size Gen.(0 -- 120) (triple (0 -- 10) small_nat small_nat)))
    (fun ((heavy, lead_pick), ops) ->
      let weight = if heavy then 3. else 0.7 in
      let max_lead = [| 0.5; 1.5; 4. |].(lead_pick) in
      let q = Sq.create ~weight ~max_lead in
      let step (m : sq_model) (op, a, b) =
        let n = List.length m.slots in
        match op with
        | 0 | 1 | 2 | 3 ->
            let v = m.chain -. (float_of_int (a mod 4) *. 0.37) in
            Sq.add q ~v;
            sq_model_add ~weight m ~v
        | 4 ->
            let v = m.chain +. (float_of_int (1 + (a mod 5)) *. 0.29) in
            Sq.add q ~v;
            sq_model_add ~weight m ~v
        | 5 ->
            if n = 0 then m
            else begin
              Sq.pop_front q;
              { m with slots = List.tl m.slots }
            end
        | 6 ->
            if n = 0 then m
            else begin
              Sq.pop_back q;
              { m with slots = List.filteri (fun i _ -> i < n - 1) m.slots }
            end
        | 7 ->
            let v =
              if n = 0 then 1.
              else snd (List.nth m.slots (a mod n)) +. 1e-9
            in
            let max_lagging = b mod 6 in
            let got = Sq.trim_lagging q ~v ~max_lagging in
            let expect, m = sq_model_trim m ~v ~max_lagging in
            if got <> expect then
              QCheck.Test.fail_reportf "trim deleted %d, model %d" got expect;
            m
        | 8 ->
            let v =
              match m.slots with
              | [] -> 0.
              | (s, _) :: _ -> s -. (float_of_int (a mod 8) *. 0.41)
            in
            let got = Sq.clamp_lead q ~v in
            let expect, m = sq_model_clamp ~weight ~max_lead m ~v in
            if got <> expect then
              QCheck.Test.fail_reportf "clamp %b, model %b" got expect;
            m
        | 9 ->
            Sq.add q ~v:0.;
            sq_model_add ~weight m ~v:0.
        | _ ->
            let v = m.chain +. (float_of_int ((a mod 5) - 2) *. 0.31) in
            let count = 1 + (b mod 16) in
            Sq.add_run q ~v ~count;
            List.fold_left
              (fun m _ -> sq_model_add ~weight m ~v)
              m (List.init count Fun.id)
      in
      let agrees (m : sq_model) =
        Sq.length q = List.length m.slots
        && same_tags (Sq.to_list q) m.slots
        &&
        match m.slots with
        | [] -> Sq.is_empty q
        | head :: _ -> same_tags [ (Sq.head_start q, Sq.head_finish q) ] [ head ]
      in
      let _ : sq_model =
        List.fold_left
          (fun m op ->
            let m = step m op in
            if not (agrees m) then
              QCheck.Test.fail_reportf "diverged after op %d: %d slots vs %d"
                (let o, _, _ = op in o) (Sq.length q) (List.length m.slots);
            m)
          { slots = []; chain = 0. } ops
      in
      true)

(* [capacity] counts ring entries and only grows, so each documented split
   shows as the step to the next power of two. *)
let test_slot_queue_runs () =
  let tags = Alcotest.(list (pair (float 0.) (float 0.))) in
  let q = Sq.create ~weight:1. ~max_lead:4. in
  check_int "no storage before the first add" 0 (Sq.capacity q);
  for _ = 1 to 8192 do
    Sq.add q ~v:0.
  done;
  check_int "8 192 slots" 8192 (Sq.length q);
  check_int "a backlogged flow's slots share one entry" 1 (Sq.capacity q);
  Sq.pop_back q;
  Sq.add q ~v:0.;
  check_int "an add after pop_back opens an entry" 2 (Sq.capacity q);
  Sq.add q ~v:0.;
  check_int "the next chained add joins it" 2 (Sq.capacity q);
  Alcotest.check tags "the new entry chains from the popped slot's finish"
    [ (8190., 8191.); (8192., 8193.); (8193., 8194.) ]
    (List.filteri (fun i _ -> i >= 8190) (Sq.to_list q));
  (* One entry of eight slots, starts 10 .. 17. *)
  let q = Sq.create ~weight:1. ~max_lead:4. in
  Sq.add q ~v:10.;
  for _ = 1 to 7 do
    Sq.add q ~v:0.
  done;
  check_int "eight chained slots, one entry" 1 (Sq.capacity q);
  (* Finishes 11 .. 15 lag behind v = 15.5; a bound of 2 deletes the slots
     starting at 12, 13 and 14 from the middle of the entry. *)
  check_int "trim deletes three" 3 (Sq.trim_lagging q ~v:15.5 ~max_lagging:2);
  check_int "a hole inside an entry splits it in two" 2 (Sq.capacity q);
  Alcotest.check tags "the kept slots"
    [ (10., 11.); (11., 12.); (15., 16.); (16., 17.); (17., 18.) ]
    (Sq.to_list q);
  check_bool "clamped" true (Sq.clamp_lead q ~v:0.);
  check_int "the clamped head splits off its entry" 4 (Sq.capacity q);
  Alcotest.check tags "the rest starts where the head finished"
    [ (4., 5.); (11., 12.); (15., 16.); (16., 17.); (17., 18.) ]
    (Sq.to_list q);
  (* A trim through to the tail: the next add still chains from 18 but
     opens an entry of its own. *)
  check_int "trim to the tail" 4 (Sq.trim_lagging q ~v:100. ~max_lagging:1);
  Sq.add q ~v:0.;
  Alcotest.check tags "after a trim that removed the tail"
    [ (4., 5.); (18., 19.) ]
    (Sq.to_list q);
  check_int "no growth: two entries" 4 (Sq.capacity q)

let test_ring_reads_and_growth () =
  let r = Ring.create () in
  check_int "no storage before the first push" 0 (Ring.capacity r);
  for i = 1 to 10 do
    Ring.push r (Packet.make ~flow:0 ~seq:i ~arrival:(10 * i) ())
  done;
  check_int "doubled to the next power of two" 16 (Ring.capacity r);
  check_int "front seq" 1 (Ring.head_seq r);
  check_int "front arrival" 10 (Ring.head_arrival r);
  Ring.pop_back r;
  for i = 1 to 9 do
    check_int "fifo order" i (Ring.head_seq r);
    Ring.pop_front r
  done;
  Alcotest.check_raises "head of an empty ring"
    (Invalid_argument "Packet.Ring.head: empty queue")
    (fun () -> ignore (Ring.head_seq r));
  check_bool "drained" true (Ring.is_empty r)

(* One entry per run of packets that share a slot, follow on in seq and
   have no attempts; [capacity] counts entries, [length] packets. *)
let test_ring_runs () =
  let push ?(attempts = 0) r seq arrival =
    let p = Packet.make ~flow:0 ~seq ~arrival () in
    p.attempts <- attempts;
    Ring.push r p
  in
  let check_packets msg expect r =
    Alcotest.(check (list (pair int (pair int int))))
      msg expect
      (List.map (fun (s, a, k) -> (s, (a, k))) (drain_ring r))
  in
  let r = Ring.create () in
  for seq = 0 to 7 do
    push r seq 5
  done;
  check_int "eight packets of one slot" 8 (Ring.length r);
  check_int "fill one entry" 1 (Ring.capacity r);
  push r ~attempts:2 8 5;
  push r 9 5;
  push r 10 6;
  push r 12 6;
  check_int "attempts, a new slot and a seq gap start entries" 8
    (Ring.capacity r);
  check_packets "packets of the runs"
    (List.init 8 (fun s -> (s, (5, 0)))
    @ [ (8, (5, 2)); (9, (5, 0)); (10, (6, 0)); (12, (6, 0)) ])
    r;
  (* A full, wrapped ring whose head is a run: three single packets and
     the run 3..5 fill four entries, the singles leave, three more come. *)
  let r = Ring.create () in
  List.iter (fun s -> push r s s) [ 0; 1; 2 ];
  List.iter (fun s -> push r s 3) [ 3; 4; 5 ];
  for _ = 1 to 3 do
    Ring.pop_front r
  done;
  List.iter (fun s -> push r s (s - 2)) [ 6; 7; 8 ];
  check_int "full before the split" 4 (Ring.capacity r);
  check_int "head inside the run" 3 (Ring.head_seq r);
  Ring.bump_attempts r;
  Ring.bump_attempts r;
  check_int "the split grew the ring" 8 (Ring.capacity r);
  check_int "split head attempts" 2 (Ring.head_attempts r);
  check_packets "the failed head split off its run"
    [ (3, (3, 2)); (4, (3, 0)); (5, (3, 0)); (6, (4, 0)); (7, (5, 0));
      (8, (6, 0)) ]
    r;
  let r = Ring.create () in
  for seq = 0 to 5 do
    push r seq 0
  done;
  push r 6 1;
  for _ = 1 to 3 do
    Ring.pop_back r
  done;
  Ring.bump_attempts r;
  check_packets "pop_back across a run boundary"
    [ (0, (0, 1)); (1, (0, 0)); (2, (0, 0)); (3, (0, 0)) ]
    r

(* --- Flow_heap vs naive model --- *)

(* Model: tag array with nan = absent; the reference minimum is the naive
   ascending-id scan keeping the first strictly smaller tag. *)
let model_min tags accept =
  let best = ref (-1) in
  Array.iteri
    (fun i tag ->
      if (not (Float.is_nan tag)) && accept i then
        match !best with
        | -1 -> best := i
        | b -> if Float.compare tag tags.(b) < 0 then best := i)
    tags;
  !best

let prop_flow_heap_model =
  QCheck.Test.make ~name:"flow_heap min/min_accept match naive scan" ~count:300
    QCheck.(pair small_int (list (triple small_int small_int bool)))
    (fun (seed, ops) ->
      let n = 16 in
      let h = Flow_heap.create ~n in
      let tags = Array.make n Float.nan in
      let rng = Rng.create seed in
      List.for_all
        (fun (flow, tag_raw, remove) ->
          let flow = flow mod n in
          if remove then begin
            Flow_heap.remove h ~flow;
            tags.(flow) <- Float.nan
          end
          else begin
            (* Small tag universe to force plenty of ties. *)
            let tag = float_of_int (tag_raw mod 8) /. 4. in
            Flow_heap.set h ~flow ~tag;
            tags.(flow) <- tag
          end;
          let mask = Array.init n (fun _ -> Rng.float rng < 0.5) in
          let accept i = mask.(i) in
          Flow_heap.min h = model_min tags (fun _ -> true)
          && Flow_heap.min_accept h ~accept = model_min tags accept
          (* min_accept must not disturb the heap. *)
          && Flow_heap.min h = model_min tags (fun _ -> true)
          && Flow_heap.cardinal h
             = Array.fold_left
                 (fun acc t -> if Float.is_nan t then acc else acc + 1)
                 0 tags)
        ops)

let test_flow_heap_basics () =
  let h = Flow_heap.create ~n:4 in
  check_int "empty min" (-1) (Flow_heap.min h);
  Flow_heap.set h ~flow:2 ~tag:1.0;
  Flow_heap.set h ~flow:1 ~tag:1.0;
  (* Equal tags: lowest flow id wins. *)
  check_int "tie to lower id" 1 (Flow_heap.min h);
  Flow_heap.set h ~flow:1 ~tag:2.0;
  check_int "retag reorders" 2 (Flow_heap.min h);
  Flow_heap.remove h ~flow:2;
  check_int "after remove" 1 (Flow_heap.min h);
  check_bool "mem" true (Flow_heap.mem h ~flow:1);
  check_bool "not mem" false (Flow_heap.mem h ~flow:2);
  check_int "reject all" (-1) (Flow_heap.min_accept h ~accept:(fun _ -> false))

(* --- Flow_set vs sorted-list model --- *)

let prop_flow_set_model =
  QCheck.Test.make ~name:"flow_set matches sorted-set model" ~count:300
    QCheck.(list (pair small_int bool))
    (fun ops ->
      let n = 24 in
      let s = Flow_set.create ~n in
      let model = ref [] in
      List.for_all
        (fun (x, add) ->
          let x = x mod n in
          if add then begin
            Flow_set.add s x;
            if not (List.mem x !model) then
              model := List.sort compare (x :: !model)
          end
          else begin
            Flow_set.remove s x;
            model := List.filter (fun y -> y <> x) !model
          end;
          List.init (Flow_set.cardinal s) (Flow_set.get s) = !model
          && Flow_set.cardinal s = List.length !model
          && List.for_all (fun y -> Flow_set.mem s y) !model
          (* find_from: position of the first member >= x, cardinal if none. *)
          &&
          let pos = Flow_set.find_from s x in
          let expect =
            let rec count i = function
              | [] -> i
              | y :: tl -> if y >= x then i else count (i + 1) tl
            in
            count 0 !model
          in
          pos = expect)
        ops)

(* --- Differential scheduler drives: naive vs indexed --- *)

(* Lockstep driver: both instances receive byte-identical arrival,
   channel-prediction, transmission-outcome, and drop sequences; every
   selection, head packet, dropped-packet list, and queue length must agree
   at every slot.  The prediction table is pure, so differing predicate
   call orders between the two select implementations are unobservable. *)
let drive_pair ?(horizon = 300) ~n_flows ~seed make =
  let rng = Rng.create seed in
  let a : Core.Wireless_sched.instance = make () in
  let b : Core.Wireless_sched.instance = make () in
  let seqs = Array.make n_flows 0 in
  let retx_limit = 2 in
  let fail_ctx fmt = Printf.ksprintf (fun m -> Alcotest.fail (a.name ^ ": " ^ m)) fmt in
  (* The drivers' delay-bound drop loop; returns the dropped seqs. *)
  let drop_expired (s : Core.Wireless_sched.instance) ~flow ~now ~bound =
    let dropped = ref [] in
    while Core.Wireless_sched.head_expired s ~flow ~now ~bound do
      dropped := Ring.head_seq (s.packets flow) :: !dropped;
      s.drop_head ~flow
    done;
    List.rev !dropped
  in
  for slot = 0 to horizon - 1 do
    for f = 0 to n_flows - 1 do
      if Rng.float rng < 0.35 then begin
        let mk () = Packet.make ~flow:f ~seq:seqs.(f) ~arrival:slot () in
        a.enqueue ~slot (mk ());
        b.enqueue ~slot (mk ());
        seqs.(f) <- seqs.(f) + 1
      end
    done;
    if Rng.float rng < 0.08 then begin
      let bound = 3 + Rng.int rng 20 in
      for f = 0 to n_flows - 1 do
        let da = drop_expired a ~flow:f ~now:slot ~bound in
        let db = drop_expired b ~flow:f ~now:slot ~bound in
        if da <> db then
          fail_ctx "slot %d: drop_expired diverged on flow %d" slot f
      done
    end;
    let good = Array.init n_flows (fun _ -> Rng.float rng < 0.7) in
    let actual_good = Rng.float rng < 0.75 in
    let predicted_good i = good.(i) in
    let sa = a.select ~slot ~predicted_good in
    let sb = b.select ~slot ~predicted_good in
    if sa <> sb then
      fail_ctx "slot %d: selected %s vs %s" slot
        (match sa with None -> "-" | Some f -> string_of_int f)
        (match sb with None -> "-" | Some f -> string_of_int f);
    (match sa with
    | None -> ()
    | Some f ->
        let qa = a.packets f and qb = b.packets f in
        if Ring.is_empty qa || Ring.is_empty qb then
          fail_ctx "slot %d: selected flow %d with empty queue" slot f;
        if Ring.head_seq qa <> Ring.head_seq qb then
          fail_ctx "slot %d: head seq diverged on flow %d" slot f;
        if actual_good then begin
          a.complete ~flow:f;
          b.complete ~flow:f
        end
        else begin
          Ring.bump_attempts qa;
          Ring.bump_attempts qb;
          a.fail ~flow:f;
          b.fail ~flow:f;
          if Ring.head_attempts qa > retx_limit then begin
            a.drop_head ~flow:f;
            b.drop_head ~flow:f
          end
        end);
    a.on_slot_end ~slot;
    b.on_slot_end ~slot;
    for f = 0 to n_flows - 1 do
      if a.queue_length f <> b.queue_length f then
        fail_ctx "slot %d: queue length diverged on flow %d" slot f
    done
  done;
  true

let gen_flows rng n =
  Array.init n (fun id ->
      Core.Params.flow ~id ~weight:(0.5 +. float_of_int (Rng.int rng 4)) ())

let scheduler_pair_prop name make_pair =
  QCheck.Test.make ~name ~count:40
    QCheck.(pair small_int (2 -- 10))
    (fun (seed, n_flows) ->
      let rng = Rng.create (seed + (1000 * n_flows)) in
      let flows = gen_flows rng n_flows in
      drive_pair ~n_flows ~seed:(Rng.int rng 1_000_000) (make_pair rng flows))

(* Each make_pair returns a thunk producing alternately the naive and the
   indexed instance; drive_pair calls it exactly twice. *)
let alternating make_naive make_fast =
  let first = ref true in
  fun () ->
    if !first then begin
      first := false;
      make_naive ()
    end
    else make_fast ()

let prop_iwfq_differential =
  scheduler_pair_prop "IWFQ: naive scan == heap selection" (fun rng flows ->
      let wf2q = Rng.float rng < 0.5 in
      let params =
        { (Core.Params.iwfq_defaults ~n_flows:(Array.length flows)) with
          Core.Params.wf2q_selection = wf2q
        }
      in
      alternating
        (fun () -> Core.Iwfq.instance (Core.Iwfq.create ~params ~naive:true flows))
        (fun () -> Core.Iwfq.instance (Core.Iwfq.create ~params flows)))

let prop_cifq_differential =
  scheduler_pair_prop "CIF-Q: naive scan == heap selection" (fun rng flows ->
      let alpha = 0.25 *. float_of_int (Rng.int rng 5) in
      alternating
        (fun () -> Core.Cifq.instance (Core.Cifq.create ~alpha ~naive:true flows))
        (fun () -> Core.Cifq.instance (Core.Cifq.create ~alpha flows)))

let prop_wps_differential =
  scheduler_pair_prop "WPS: dense frame build == sparse frame build"
    (fun rng flows ->
      let params =
        match Rng.int rng 5 with
        | 0 -> Core.Params.blind_wrr
        | 1 -> Core.Params.wrr
        | 2 -> Core.Params.noswap ()
        | 3 -> Core.Params.swapw ()
        | _ -> Core.Params.swapa ()
      in
      alternating
        (fun () -> Core.Wps.instance (Core.Wps.create ~params ~naive:true flows))
        (fun () -> Core.Wps.instance (Core.Wps.create ~params flows)))

let prop_csdps_differential =
  scheduler_pair_prop "CSDPS: naive round-robin == indexed round-robin"
    (fun rng flows ->
      let backoff = 1 + Rng.int rng 15 in
      alternating
        (fun () -> Core.Csdps.instance (Core.Csdps.create ~backoff ~naive:true flows))
        (fun () -> Core.Csdps.instance (Core.Csdps.create ~backoff flows)))

(* --- arrive == count enqueues --- *)

(* Every scheduler configuration the drivers can build, naive and indexed,
   over three flows with non-dyadic weights: 1/3, 1/0.7 and 1/1.5 have no
   exact binary form, so a tag chain or fluid backlog computed in closed
   form reads different bits from the per-packet additions.  Each entry
   makes an instance and a probe of the floats it keeps per flow. *)
let arrive_weights = [| 3.; 0.7; 1.5 |]

let arrive_configs =
  let flows =
    Array.mapi (fun id weight -> Core.Params.flow ~id ~weight ()) arrive_weights
  in
  let n_flows = Array.length flows in
  let floats_of (s : Core.Wireless_sched.instance) f =
    (match s.probe.virtual_time with Some v -> [ v () ] | None -> [])
    @ match s.probe.finish_tag with Some tag -> [ tag f ] | None -> []
  in
  let plain make () =
    let s = make () in
    (s, floats_of s)
  in
  let iwfq ~wf2q ~naive () =
    let params =
      { (Core.Params.iwfq_defaults ~n_flows) with
        Core.Params.wf2q_selection = wf2q
      }
    in
    let t = Core.Iwfq.create ~params ~naive flows in
    let s = Core.Iwfq.instance t in
    let fluid = Core.Iwfq.fluid t in
    (s, fun f -> Core.Fluid_ref.queue fluid ~flow:f :: floats_of s f)
  in
  List.concat_map
    (fun naive ->
      let mode = if naive then "naive" else "indexed" in
      [
        (Printf.sprintf "IWFQ WF2Q %s" mode, iwfq ~wf2q:true ~naive);
        (Printf.sprintf "IWFQ %s" mode, iwfq ~wf2q:false ~naive);
        ( Printf.sprintf "CIF-Q %s" mode,
          plain (fun () ->
              Core.Cifq.instance (Core.Cifq.create ~naive flows)) );
        ( Printf.sprintf "CSDPS %s" mode,
          plain (fun () ->
              Core.Csdps.instance
                (Core.Csdps.create ~backoff:3 ~naive flows)) );
      ]
      @ List.map
          (fun (name, params) ->
            ( Printf.sprintf "%s %s" name mode,
              plain (fun () ->
                  Core.Wps.instance (Core.Wps.create ~params ~naive flows)) ))
          [
            ("BlindWRR", Core.Params.blind_wrr);
            ("WRR", Core.Params.wrr);
            ("NoSwap", Core.Params.noswap ());
            ("SwapW", Core.Params.swapw ());
            ("SwapA", Core.Params.swapa ());
          ])
    [ false; true ]

(* Drive two instances of one configuration through the same operations,
   except that [a] takes each batch of fresh packets as one [arrive] and
   [b] as [count] [enqueue]s.  Ops, from [(op, x, y)]: 0-3 a batch of
   [1 + y mod 16] packets for flow [x mod 3] (4: after a seq gap, as a
   buffer drop leaves), 5 a packet with attempts (a handoff re-queue),
   6-7 a slot: select with a prediction pattern from [x], then deliver,
   or fail and drop past two attempts, per [y]; 8 the delay-bound drop
   loop at bound [x mod 5]; 9 an idle slot.  After every op both must agree
   on queue lengths, head seq, arrival and attempts, and, bit for bit, on
   the probe floats. *)
let arrive_equiv_run
    (name, (make : unit -> Core.Wireless_sched.instance * (int -> float list)))
    ops =
  let a, floats_a = make () and b, floats_b = make () in
  let n = Array.length arrive_weights in
  let seqs = Array.make n 0 in
  let slot = ref 0 in
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) name in
  let agree step =
    for f = 0 to n - 1 do
      let qa = a.packets f and qb = b.packets f in
      if a.queue_length f <> b.queue_length f then
        fail "op %d: flow %d holds %d vs %d packets" step f (a.queue_length f)
          (b.queue_length f);
      if
        (not (Ring.is_empty qa))
        && (Ring.head_seq qa <> Ring.head_seq qb
           || Ring.head_arrival qa <> Ring.head_arrival qb
           || Ring.head_attempts qa <> Ring.head_attempts qb)
      then fail "op %d: flow %d heads differ" step f;
      let same x y =
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      in
      if not (List.equal same (floats_a f) (floats_b f)) then
        fail "op %d: flow %d floats differ" step f
    done
  in
  let end_slot ~predicted_good ~deliver =
    let sa = a.select ~slot:!slot ~predicted_good in
    let sb = b.select ~slot:!slot ~predicted_good in
    if sa <> sb then fail "slot %d: selections differ" !slot;
    (match sa with
    | None -> ()
    | Some f ->
        if deliver then begin
          a.complete ~flow:f;
          b.complete ~flow:f
        end
        else begin
          Ring.bump_attempts (a.packets f);
          Ring.bump_attempts (b.packets f);
          a.fail ~flow:f;
          b.fail ~flow:f;
          if Ring.head_attempts (a.packets f) > 2 then begin
            a.drop_head ~flow:f;
            b.drop_head ~flow:f
          end
        end);
    a.on_slot_end ~slot:!slot;
    b.on_slot_end ~slot:!slot;
    incr slot
  in
  List.iteri
    (fun step (op, x, y) ->
      let f = x mod n in
      (match op with
      | 0 | 1 | 2 | 3 | 4 ->
          if op = 4 then seqs.(f) <- seqs.(f) + 1 + (y mod 3);
          let count = 1 + (y mod 16) and seq = seqs.(f) in
          a.arrive ~slot:!slot ~flow:f ~seq ~count;
          for k = 0 to count - 1 do
            b.enqueue ~slot:!slot
              (Packet.make ~flow:f ~seq:(seq + k) ~arrival:!slot ())
          done;
          seqs.(f) <- seq + count
      | 5 ->
          let mk () =
            let arrival = !slot - (y mod 4) in
            let p = Packet.make ~flow:f ~seq:seqs.(f) ~arrival () in
            p.attempts <- 1 + (y mod 2);
            p
          in
          a.enqueue ~slot:!slot (mk ());
          b.enqueue ~slot:!slot (mk ());
          seqs.(f) <- seqs.(f) + 1
      | 6 | 7 ->
          end_slot
            ~predicted_good:(fun i -> (x lsr i) land 1 = 0 || i = y mod n)
            ~deliver:(y mod 4 <> 0)
      | 8 ->
          let bound = x mod 5 in
          for f = 0 to n - 1 do
            let drop (s : Core.Wireless_sched.instance) =
              while
                Core.Wireless_sched.head_expired s ~flow:f ~now:!slot ~bound
              do
                s.drop_head ~flow:f
              done
            in
            drop a;
            drop b
          done
      | _ -> end_slot ~predicted_good:(fun _ -> false) ~deliver:true);
      agree step)
    ops;
  true

let prop_arrive_equiv =
  QCheck.Test.make ~name:"arrive ~count:k == k enqueues, every scheduler"
    ~count:150
    QCheck.(list_of_size Gen.(1 -- 120) (triple (0 -- 9) small_nat small_nat))
    (fun ops ->
      List.for_all (fun config -> arrive_equiv_run config ops) arrive_configs)

(* --- The spread kernel == dense spreading --- *)

(* Two spreads through the same buffers, as WPS's frame builds reuse them:
   members with weight <= 0 stay on the member list (the kernel gives them
   no slots), and the second spread must not read the first's cells. *)
let prop_spread_matches_dense =
  QCheck.Test.make ~name:"spread kernel equals dense frame" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 12) (int_range (-2) 5))
        (list_of_size Gen.(1 -- 12) (int_range (-2) 5)))
    (fun (first, second) ->
      let n = 12 in
      let ids = Array.make n (-1) in
      let weights = Array.make n 0 in
      let sent = Array.make n 0 in
      let out = Array.make (5 * n) (-1) in
      let matches ws =
        let dense = Array.of_list ws in
        let members = ref 0 in
        Array.iteri
          (fun i w ->
            if w <> 0 then begin
              ids.(!members) <- i;
              weights.(!members) <- w;
              incr members
            end)
          dense;
        let len =
          Core.Spreading.spread ~ids ~weights ~members:!members ~sent ~out
        in
        Array.sub out 0 len = Core.Spreading.frame ~weights:dense
      in
      matches first && matches second)

(* --- Null sources and static channels (simulator skip contracts) --- *)

let test_never_source () =
  let src = Wfs_traffic.Arrival.never () in
  check_bool "is_never" true (Wfs_traffic.Arrival.is_never src);
  for slot = 0 to 99 do
    check_int "no arrivals" 0 (Wfs_traffic.Arrival.arrivals src ~slot)
  done;
  check_bool "poisson not never" false
    (Wfs_traffic.Arrival.is_never
       (Wfs_traffic.Poisson.create ~rng:(Rng.create 1) ~rate:0.5))

let test_static_channel () =
  let ch = Wfs_channel.Channel.make_const ~label:"t" Wfs_channel.Channel.Good in
  check_bool "is_static" true (Wfs_channel.Channel.is_static ch);
  ignore (Wfs_channel.Channel.advance ch ~slot:0);
  check_bool "stays good" true
    (Wfs_channel.Channel.state_is_good (Wfs_channel.Channel.state ch));
  let ef = Wfs_channel.Error_free.create () in
  check_bool "error-free is static" true (Wfs_channel.Channel.is_static ef)

(* --- RNG-stream equivalence of pre-sampling (event compression) ---

   The fast path replaces per-slot queries with [Arrival.next_event] and
   [Channel.advance_run] windows.  Byte-identity rests on both consuming
   exactly the draws the stepwise walk would — no draw early, none late —
   even when the walk is chopped into arbitrary windows, which is what a
   topo epoch barrier does when it dissolves a Session mid-stream and the
   next Session resumes the same source/channel objects.  Each property
   drives twin objects (same seed) stepwise vs. windowed and then keeps
   stepping both past the horizon: the tails only agree if the window pass
   left the RNG stream in the stepwise position. *)

(* The Poisson rates cover the scan kernel from sparse (0.025) to dense
   (8) windows and, at 600, the normal approximation's stepwise scan. *)
let poisson_rates = [| 0.025; 0.3; 8.; 600. |]

let source_of_kind kind ~rate seed =
  let rng = Rng.create seed in
  match kind with
  | 0 -> Wfs_traffic.Poisson.create ~rng ~rate:poisson_rates.(rate)
  | 1 -> Wfs_traffic.Cbr.create ~interarrival:3.5 ()
  | 2 -> Wfs_traffic.Onoff.create ~rng ~p_on_to_off:0.2 ~p_off_to_on:0.1 ()
  | 3 -> Wfs_traffic.Pareto_onoff.create ~rng ~mean_on:4. ~mean_off:12. ()
  | _ -> Wfs_traffic.Mmpp.create ~rng ~on_rate:0.6 ()

let prop_arrival_next_event_equiv =
  QCheck.Test.make ~name:"arrival next_event consumes the stepwise draws"
    ~count:200
    QCheck.(triple (0 -- 4) (0 -- 3) small_int)
    (fun (kind, rate, seed) ->
      let horizon = 200 in
      let a = source_of_kind kind ~rate seed in
      let b = source_of_kind kind ~rate seed in
      let step_counts =
        Array.init horizon (fun slot -> Wfs_traffic.Arrival.arrivals a ~slot)
      in
      let ev_counts = Array.make horizon 0 in
      let wrng = Rng.create (seed + 7919) in
      let from = ref 0 in
      while !from < horizon do
        let upto = min horizon (!from + 1 + Rng.int wrng 40) in
        let s = ref !from in
        let continue = ref true in
        while !continue do
          match Wfs_traffic.Arrival.next_event b ~from:!s ~upto with
          | -1 -> continue := false
          | e ->
              ev_counts.(e) <- Wfs_traffic.Arrival.pending_count b;
              s := e + 1;
              if !s >= upto then continue := false
        done;
        from := upto
      done;
      let tail_a =
        Array.init 50 (fun i ->
            Wfs_traffic.Arrival.arrivals a ~slot:(horizon + i))
      in
      let tail_b =
        Array.init 50 (fun i ->
            Wfs_traffic.Arrival.arrivals b ~slot:(horizon + i))
      in
      step_counts = ev_counts && tail_a = tail_b)

let channel_of_kind kind seed =
  let rng = Rng.create seed in
  match kind with
  | 0 -> Wfs_channel.Gilbert_elliott.create ~rng ~pg:0.1 ~pe:0.3 ()
  | 1 -> Wfs_channel.Bernoulli_ch.create ~rng ~good_prob:0.7
  | _ ->
      Wfs_channel.Markov_ch.create ~rng
        {
          Wfs_channel.Markov_ch.transition =
            [| [| 0.9; 0.1 |]; [| 0.4; 0.6 |] |];
          good_prob = [| 0.95; 0.2 |];
        }

let prop_channel_advance_run_equiv =
  QCheck.Test.make ~name:"channel advance_run matches stepwise advance"
    ~count:100
    QCheck.(pair (0 -- 2) small_int)
    (fun (kind, seed) ->
      let horizon = 200 in
      let a = channel_of_kind kind seed in
      let b = channel_of_kind kind seed in
      let states =
        Array.init horizon (fun slot -> Wfs_channel.Channel.advance a ~slot)
      in
      let wrng = Rng.create (seed + 104729) in
      let ok = ref true in
      let from = ref 0 in
      while !from < horizon do
        let upto = min horizon (!from + 1 + Rng.int wrng 30) in
        let st = Wfs_channel.Channel.advance_run b ~from:!from ~slot:(upto - 1) in
        if st <> states.(upto - 1) then ok := false;
        if
          upto - 1 > 0
          && Wfs_channel.Channel.previous_state b <> states.(upto - 2)
        then ok := false;
        from := upto
      done;
      let tail_a =
        Array.init 50 (fun i ->
            Wfs_channel.Channel.advance a ~slot:(horizon + i))
      in
      let tail_b =
        Array.init 50 (fun i ->
            Wfs_channel.Channel.advance b ~slot:(horizon + i))
      in
      !ok && tail_a = tail_b)

(* --- Event calendar model --- *)

let prop_event_cal_model =
  QCheck.Test.make ~name:"event_cal matches sorted-pair model" ~count:200
    QCheck.(pair (1 -- 16) (list (pair small_int small_int)))
    (fun (n, ops) ->
      let cal = Wfs_util.Event_cal.create ~n in
      let model = ref [] in
      let ok = ref true in
      let model_min () =
        List.fold_left
          (fun acc kv -> if kv < acc then kv else acc)
          (max_int, max_int) !model
      in
      let pop_checked () =
        let k, id = model_min () in
        if Wfs_util.Event_cal.min_key cal <> k then ok := false;
        if Wfs_util.Event_cal.pop cal <> id then ok := false;
        model := List.filter (fun (_, i) -> i <> id) !model
      in
      List.iter
        (fun (key, x) ->
          let id = x mod n in
          if List.exists (fun (_, i) -> i = id) !model then begin
            (* A second pending event for the same id must be rejected. *)
            (match Wfs_util.Event_cal.push cal ~key ~id with
            | () -> ok := false
            | exception Invalid_argument _ -> ());
            pop_checked ()
          end
          else begin
            Wfs_util.Event_cal.push cal ~key ~id;
            model := (key, id) :: !model
          end)
        ops;
      while !model <> [] do
        pop_checked ()
      done;
      !ok
      && Wfs_util.Event_cal.is_empty cal
      && Wfs_util.Event_cal.min_key cal = max_int)

(* --- Fast path vs. reference loop: full-run byte-identity --- *)

let metrics_fingerprint m =
  Wfs_util.Json.to_string (Core.Metrics.to_json m)

let run_example ?hooks ~fast ~sched ~example ~horizon ~seed () =
  let spec =
    Wfs_runner.Spec.make ~seed ~horizon ~sched
      (Wfs_runner.Spec.example example)
  in
  metrics_fingerprint (Wfs_runner.Exec.run ?hooks ~fast_path:fast spec)

let test_fast_path_full_run_identity () =
  List.iter
    (fun sched ->
      List.iter
        (fun example ->
          let r = run_example ~fast:false ~sched ~example ~horizon:1500 ~seed:11 () in
          let f = run_example ~fast:true ~sched ~example ~horizon:1500 ~seed:11 () in
          Alcotest.(check string)
            (Printf.sprintf "%s example %d" sched example)
            r f)
        [ 1; 2 ])
    [ "SwapA-P"; "IWFQ-P"; "CIF-Q-P"; "CSDPS" ]

(* A probed run silently degenerates to the reference loop; the knob must
   still be byte-transparent. *)
let test_fast_path_probed_degenerates () =
  let hooks flows sched =
    [ Wfs_obs.Probe.create ~n_flows:(Array.length flows) sched ]
  in
  let r = run_example ~hooks ~fast:false ~sched:"SwapA-P" ~example:2 ~horizon:1000 ~seed:11 () in
  let f = run_example ~hooks ~fast:true ~sched:"SwapA-P" ~example:2 ~horizon:1000 ~seed:11 () in
  Alcotest.(check string) "probed run identical" r f

(* Multi-cell topology with chaos faults: the fast path must stay
   byte-identical to the reference across jobs counts — epoch barriers
   bound the skip horizon, so handoff dissolve/rebuild sees the same
   source/channel streams either way. *)
let test_topo_fast_jobs_identity () =
  let faults =
    match
      Wfs_runner.Spec.faults_of_string
        "crash:0.05;recover:0.5;lose:0.05;corrupt:0.05;blackout:0.05x50;exn:0;persist:0;budget:20"
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let topo =
    Wfs_runner.Spec.with_faults faults
      (Wfs_runner.Spec.topo ~cells:3 ~mobility:0.3 ~epoch:100)
  in
  let spec =
    Wfs_runner.Spec.make ~seed:5 ~horizon:600 ~sched:"SwapA-P" ~topo
      (Wfs_runner.Spec.example 3)
  in
  let render ~fast ~jobs =
    let t = Wfs_topo.Topology.of_spec ~fast_path:fast spec in
    Wfs_topo.Topology.run ~jobs t;
    Printf.sprintf "%s;handoffs=%d"
      (metrics_fingerprint (Wfs_topo.Topology.metrics t))
      (Wfs_topo.Topology.handoffs t)
  in
  let reference = render ~fast:false ~jobs:1 in
  Alcotest.(check string) "reference jobs=4" reference (render ~fast:false ~jobs:4);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fast jobs=%d" jobs)
        reference
        (render ~fast:true ~jobs))
    [ 1; 2; 4 ]

(* Every registry scheduler in cells shaped for the fast path: the active
   flows carry Poisson traffic over bursty Gilbert-Elliott channels with a
   retransmission limit of 3, the rest are provisioned but silent
   ([Arrival.never] over an error-free channel).  Each (scheduler, flows,
   tier) cell must give the reference loop's metrics on the fast path,
   with and without a [Skip_stats] collector, and a scheduler that
   publishes [quiescent] must never step a slot on the reference loop. *)
let sweep_tiers = [ (0.9, 8); (0.05, 8); (0.05, 2) ]

let sweep_setups ~load ~active_cap ~n_flows ~seed =
  let active = min n_flows active_cap in
  let rate = load /. float_of_int active in
  Array.init n_flows (fun id ->
      let flow =
        Core.Params.flow ~id ~weight:1. ~drop:(Core.Params.Retx_limit 3) ()
      in
      if id < active then
        {
          Core.Simulator.flow;
          source =
            Wfs_traffic.Poisson.create
              ~rng:(Rng.create (seed + (1000 * id) + 1))
              ~rate;
          channel =
            Wfs_channel.Gilbert_elliott.of_burstiness
              ~rng:(Rng.create (seed + (1000 * id) + 2))
              ~good_prob:0.9 ~sum:0.1 ();
        }
      else
        {
          Core.Simulator.flow;
          source = Wfs_traffic.Arrival.never ();
          channel = Wfs_channel.Error_free.create ();
        })

let test_fast_path_registry_sweep () =
  let horizon = 2_000 and seed = 42 in
  let run (entry : Core.Registry.entry) ~load ~active_cap ~n_flows ~fast ?skip
      () =
    let setups = sweep_setups ~load ~active_cap ~n_flows ~seed in
    let sched = entry.make (Core.Presets.flows_of setups) in
    let cfg =
      Core.Sim_config.v ~horizon setups
      |> Core.Sim_config.with_predictor entry.predictor
      |> Core.Sim_config.with_fast_path fast
    in
    let cfg =
      match skip with
      | Some k -> Core.Sim_config.with_skip_stats k cfg
      | None -> cfg
    in
    (metrics_fingerprint (Core.Sim_config.run sched cfg), sched)
  in
  List.iter
    (fun (entry : Core.Registry.entry) ->
      List.iter
        (fun (load, active_cap) ->
          List.iter
            (fun n_flows ->
              let run = run entry ~load ~active_cap ~n_flows in
              let label =
                Printf.sprintf "%s flows=%d load=%.2f active=%d" entry.name
                  n_flows load active_cap
              in
              let reference, _ = run ~fast:false () in
              let fast, _ = run ~fast:true () in
              Alcotest.(check string) (label ^ " fast") reference fast;
              let skip = Core.Skip_stats.create () in
              let skipped, sched = run ~fast:true ~skip () in
              Alcotest.(check string) (label ^ " fast+skip") reference skipped;
              if Option.is_some sched.Core.Wireless_sched.quiescent then begin
                check_bool (label ^ " compressed") true
                  (Core.Skip_stats.compressed skip);
                check_int (label ^ " reference slots") 0
                  (Core.Skip_stats.reference_slots skip)
              end)
            [ 2; 16; 64; 256 ])
        sweep_tiers)
    (Core.Registry.entries ())

(* --- The packet store: rings inside the four wireless schedulers --- *)

let store_scheds = [ "IWFQ-P"; "SwapA-P"; "CIF-Q-P"; "CSDPS" ]

let make_sched name ~n_flows =
  let flows = Array.init n_flows (fun id -> Core.Params.flow ~id ~weight:1. ()) in
  (Core.Registry.get name).Core.Registry.make ~credit_limit:4 ~debit_limit:4 flows

(* A packet of its own slot costs the flow's ring one three-int entry;
   doubling can leave at most as much again unused.  A boxed packet record
   per queued packet costs 9 or more words.  A burst of 8 packets per slot
   shares one entry, so the ring grows per slot, not per packet.  IWFQ's
   slot tags chain while the flow stays backlogged, so they share one
   two-float entry in both cases. *)
let test_store_footprint () =
  let n = 8192 in
  List.iter
    (fun (per_slot, words) ->
      List.iter
        (fun name ->
          let sched = make_sched name ~n_flows:2 in
          let before = Obj.reachable_words (Obj.repr sched) in
          for seq = 0 to n - 1 do
            sched.enqueue ~slot:0
              (Packet.make ~flow:0 ~seq ~arrival:(seq / per_slot) ())
          done;
          let grown = Obj.reachable_words (Obj.repr sched) - before in
          let bound = words name in
          check_int (name ^ ": all queued") n (sched.queue_length 0);
          check_bool
            (Printf.sprintf
               "%s, %d per slot: %d words for %d queued packets (at most %d \
                each)"
               name per_slot grown n bound)
            true
            (grown <= bound * n))
        store_scheds)
    [
      (1, fun _ -> 6);
      (8, fun _ -> 1);
    ]

(* A topology's state grows with its flows, not with cells times flows: a
   freshly built 64-cell topology of 4-flow cells holds about as many
   reachable words per cell as an 8-cell one.  A metric bank sized to the
   topology's flow count in every cell costs 64 × 256 rows here. *)
let test_topology_footprint () =
  let path = Filename.temp_file "wfs_metro" ".scenario" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc Test_topo.metro_cell);
      let per_cell cells =
        let t =
          Wfs_topo.Topology.of_spec
            (Wfs_runner.Spec.make ~seed:42 ~horizon:5_000
               ~topo:(Wfs_runner.Spec.topo ~cells ~mobility:0.2 ~epoch:100)
               ~sched:"SwapA-P" (Wfs_runner.Spec.file path))
        in
        Obj.reachable_words (Obj.repr t) / cells
      in
      let small = per_cell 8 and large = per_cell 64 in
      check_bool
        (Printf.sprintf
           "%d words per cell at 64 cells, %d at 8 (at most 10%% more)" large
           small)
        true
        (10 * large <= 11 * small))

(* Attempts belong to the packet: copied in by [enqueue], read back at the
   head, and carried out and back in by a cell's dissolve/rebuild.  A run
   of one slot whose head fails, as a driver records it on the ring,
   splits that head off and must carry its attempt along too. *)
let test_store_keeps_attempts () =
  List.iter
    (fun name ->
      let sched = make_sched name ~n_flows:2 in
      let p = Packet.make ~flow:1 ~seq:7 ~arrival:3 () in
      p.attempts <- 2;
      sched.enqueue ~slot:3 p;
      let q = sched.packets 1 in
      check_int (name ^ ": head attempts") 2 (Ring.head_attempts q);
      check_int (name ^ ": head seq") 7 (Ring.head_seq q);
      check_int (name ^ ": head arrival") 3 (Ring.head_arrival q);
      for seq = 0 to 3 do
        sched.enqueue ~slot:3 (Packet.make ~flow:0 ~seq ~arrival:3 ())
      done;
      let q = sched.packets 0 in
      Ring.bump_attempts q;
      check_int (name ^ ": failed run head") 1 (Ring.head_attempts q);
      let rec drain acc =
        if Ring.is_empty q then List.rev acc
        else begin
          let p = Ring.head q ~flow:1 in
          sched.drop_head ~flow:0;
          drain (p :: acc)
        end
      in
      let run = drain [] in
      let entry = Core.Registry.get name in
      let members =
        Array.to_list
          (Array.mapi
             (fun gid setup -> { Wfs_topo.Cell.gid; setup })
             (Core.Presets.example1 ~seed:5 ()))
      in
      let cell =
        Wfs_topo.Cell.create ~id:0 ~sched:entry ~horizon:100 members
      in
      let backlog =
        List.map
          (fun (seq, attempts) ->
            let p = Packet.make ~flow:0 ~seq ~arrival:0 () in
            p.attempts <- attempts;
            p)
          [ (0, 3); (1, 0); (2, 1) ]
      in
      let parcels =
        List.map
          (fun (pc : Wfs_topo.Cell.parcel) ->
            if pc.member.gid = 0 then { pc with backlog }
            else { pc with backlog = run })
          (Wfs_topo.Cell.dissolve cell)
      in
      let view (pc : Wfs_topo.Cell.parcel) =
        List.map
          (fun (p : Packet.t) -> (p.flow, (p.seq, (p.arrival, p.attempts))))
          pc.backlog
      in
      let expect =
        List.map (fun (p : Packet.t) -> (0, (p.seq, (0, p.attempts)))) backlog
        @ List.map
            (fun (seq, attempts) -> (1, (seq, (3, attempts))))
            [ (0, 1); (1, 0); (2, 0); (3, 0) ]
      in
      let twice =
        Wfs_topo.Cell.dissolve (Wfs_topo.Cell.rebuild cell ~slot:0 parcels)
      in
      let thrice =
        Wfs_topo.Cell.dissolve (Wfs_topo.Cell.rebuild cell ~slot:0 twice)
      in
      List.iter
        (fun round ->
          Alcotest.(check (list (pair int (pair int (pair int int)))))
            (name ^ ": backlog survives dissolve/rebuild")
            expect
            (List.concat_map view round))
        [ twice; thrice ])
    store_scheds

(* --- Minor words per select --- *)

(* Four backlogged flows, a fixed pattern of predicted channel errors (one
   slot in three per flow, so the swap and redistribution paths run), and
   a delivery or a failure after every pick.  Apart from the [Some f] that
   [select] returns (2 words), WPS allocates only for a cross-frame swap
   and a change of frame membership, and CIF-Q for the boxed virtual time
   it charges.  The budget holds without cross-module inlining, so the dev
   build that runs this test binds it as well as a release build. *)
let select_words name =
  let n_flows = 4 and calls = 20_000 and backlog = 30_000 in
  let sched = make_sched name ~n_flows in
  for seq = 0 to backlog - 1 do
    for flow = 0 to n_flows - 1 do
      sched.enqueue ~slot:0 (Packet.make ~flow ~seq ~arrival:(seq / 8) ())
    done
  done;
  let rng = Rng.create 11 in
  let bad = Array.init 997 (fun _ -> Rng.int rng 3 = 0) in
  let slot = ref 0 in
  let predicted_good f = not bad.(((!slot * n_flows) + f) mod 997) in
  let step () =
    (match sched.select ~slot:!slot ~predicted_good with
    | Some f when predicted_good f -> sched.complete ~flow:f
    | Some f -> sched.fail ~flow:f
    | None -> ());
    sched.on_slot_end ~slot:!slot;
    incr slot
  in
  for _ = 1 to 1_000 do
    step ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    step ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_select_words () =
  List.iter
    (fun (names, budget) ->
      List.iter
        (fun name ->
          let words = select_words name in
          check_bool
            (Printf.sprintf "%s: %.2f minor words per select (at most %.0f)"
               name words budget)
            true (words <= budget))
        names)
    [
      ( List.map
          (fun (e : Core.Registry.entry) -> e.name)
          (Core.Registry.table1 ()),
        6. );
      ([ "CIF-Q-P" ], 10.);
      ([ "IWFQ-I"; "IWFQ-P" ], 8.);
    ]

(* One draw per dynamic channel and per live source and slot is the
   per-slot floor every engine pays, so the draws themselves must not
   allocate: a Poisson(8) sample, [Rng.poisson], a Bernoulli draw and
   every draw kernel take 0 minor words, and a Gilbert-Elliott channel
   advance takes at most the 2 of the [Some state] it stores.  The RNG
   core is inlined within [Rng] itself, so these budgets hold without
   cross-module inlining: they bind the dev build, which compiles with
   [-opaque], as well as a release build, and CI runs the test under
   both. *)
let draw_words f =
  let calls = 100_000 in
  for _ = 1 to 1_000 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_draw_words () =
  let rng = Rng.create 5 in
  let source = Wfs_traffic.Poisson.create ~rng ~rate:8. in
  let slot = ref 0 and total = ref 0 in
  let poisson () =
    total := !total + Wfs_traffic.Arrival.arrivals source ~slot:!slot;
    incr slot
  in
  let hits = ref 0 in
  let bernoulli () = if Rng.bernoulli rng 0.3 then incr hits in
  let channel =
    Wfs_channel.Gilbert_elliott.create ~rng:(Rng.create 6) ~pg:0.05 ~pe:0.2 ()
  in
  let cslot = ref 0 in
  let advance () =
    ignore
      (Wfs_channel.Channel.advance channel ~slot:!cslot
        : Wfs_channel.Channel.state);
    incr cslot
  in
  (* [Rng.poisson] computes [exp (-. mean)] on every call, as an MMPP
     on-segment does; the kernels run windows of the lengths the fast
     path hands them. *)
  let mmpp () = total := !total + Rng.poisson rng ~mean:0.8 in
  let limit = exp (-0.3) and pending = ref 0 and state = ref false in
  let scan () =
    if Rng.knuth_scan rng ~limit ~len:40 ~pending >= 0 then incr hits
  in
  let knuth () = total := !total + Rng.poisson_knuth rng ~limit in
  let flips () =
    if
      Rng.flip_run rng state ~p_true:0.2 ~p_false:0.05 ~len:40
        ~until_true:true
      >= 0
    then incr hits
  in
  let bulk () =
    ignore
      (Rng.flip_run rng state ~p_true:0.2 ~p_false:0.05 ~len:40
         ~until_true:false
        : int)
  in
  let bernoullis () = if Rng.bernoulli_run rng 0.3 ~len:40 then incr hits in
  List.iter
    (fun (what, f, budget) ->
      let words = draw_words f in
      check_bool
        (Printf.sprintf "%s: %.2f minor words per call (at most %.0f)" what
           words budget)
        true
        (words <= budget +. 0.01))
    [
      ("Poisson(8) sample", poisson, 0.);
      ("Rng.poisson ~mean:0.8", mmpp, 0.);
      ("Rng.bernoulli", bernoulli, 0.);
      ("Gilbert-Elliott Channel.advance", advance, 2.);
      ("Rng.poisson_knuth", knuth, 0.);
      ("Rng.knuth_scan ~len:40", scan, 0.);
      ("Rng.flip_run ~until_true:true ~len:40", flips, 0.);
      ("Rng.flip_run ~until_true:false ~len:40", bulk, 0.);
      ("Rng.bernoulli_run ~len:40", bernoullis, 0.);
    ];
  check_bool "the draws ran" true (!total > 0 && !hits > 0 && !pending > 0)

(* --- Draw kernels against their per-draw loops ---

   Twin streams from one seed, one through a kernel and one through the
   per-draw loop it replaced (test/draw_loops.ml), must give the same
   result, the same pending count or chain state, and then the same next
   eight outputs: the kernel left the stream where the loop did.  The
   means span the Knuth loop from about one draw per sample to about
   500, and the probabilities include the two certain ones. *)

let knuth_means = [| 0.025; 0.3; 0.8; 8.; 40.; 499. |]
let flip_probs = [| 0.; 0.005; 0.3; 0.95; 1. |]

let prop_draw_kernels_bit_exact =
  QCheck.Test.make ~name:"draw kernels match their per-draw loops bit for bit"
    ~count:300
    QCheck.(
      quad int (0 -- 5) (0 -- 300) (quad (0 -- 4) (0 -- 4) bool (0 -- 15)))
    (fun (seed, m, len, (t, f, start, samples)) ->
      let mean = knuth_means.(m) in
      let limit = exp (-.mean) in
      let p_true = flip_probs.(t) and p_false = flip_probs.(f) in
      let same what kernel oracle =
        let a = Rng.create seed and b = Rng.create seed in
        let got = kernel a and want = oracle b in
        if got <> want then
          QCheck.Test.fail_reportf "%s: kernel [%s], per-draw loop [%s]" what
            (String.concat "; " (List.map string_of_int got))
            (String.concat "; " (List.map string_of_int want));
        let next r = List.init 8 (fun _ -> Rng.bits64 r) in
        if next a <> next b then
          QCheck.Test.fail_reportf "%s: the stream ends elsewhere" what
      in
      let repeat draw rng = List.init (1 + samples) (fun _ -> draw rng) in
      same "poisson_knuth"
        (repeat (fun r -> Rng.poisson_knuth r ~limit))
        (repeat (fun r -> Draw_loops.poisson_knuth r ~limit));
      same "poisson"
        (repeat (fun r -> Rng.poisson r ~mean))
        (repeat (fun r -> Draw_loops.poisson_knuth r ~limit));
      let scan run r =
        let pending = ref (-7) in
        let i = run r ~limit ~len ~pending in
        [ i; !pending ]
      in
      same "knuth_scan"
        (scan (fun r -> Rng.knuth_scan r))
        (scan (fun r -> Draw_loops.knuth_scan r));
      List.iter
        (fun until_true ->
          let flips run r =
            let state = ref start in
            let i = run r state ~p_true ~p_false ~len ~until_true in
            [ i; Bool.to_int !state ]
          in
          same
            (Printf.sprintf "flip_run ~until_true:%b" until_true)
            (flips (fun r -> Rng.flip_run r))
            (flips (fun r -> Draw_loops.flip_run r)))
        [ false; true ];
      same "bernoulli_run"
        (fun r -> [ Bool.to_int (Rng.bernoulli_run r p_true ~len) ])
        (fun r -> [ Bool.to_int (Draw_loops.bernoulli_run r p_true ~len) ]);
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_deque_model;
    QCheck_alcotest.to_alcotest prop_deque_remove_range;
    Alcotest.test_case "deque get/peek/clear" `Quick test_deque_get_and_peeks;
    QCheck_alcotest.to_alcotest prop_ring_model;
    QCheck_alcotest.to_alcotest prop_slot_queue_trim;
    QCheck_alcotest.to_alcotest prop_slot_queue_model;
    Alcotest.test_case "slot queue runs" `Quick test_slot_queue_runs;
    Alcotest.test_case "packet ring reads/growth" `Quick test_ring_reads_and_growth;
    Alcotest.test_case "packet ring runs" `Quick test_ring_runs;
    Alcotest.test_case "packet store footprint" `Quick test_store_footprint;
    Alcotest.test_case "topology footprint" `Quick test_topology_footprint;
    Alcotest.test_case "packet store keeps attempts" `Quick
      test_store_keeps_attempts;
    Alcotest.test_case "select minor words" `Quick test_select_words;
    Alcotest.test_case "draw minor words" `Quick test_draw_words;
    QCheck_alcotest.to_alcotest prop_draw_kernels_bit_exact;
    QCheck_alcotest.to_alcotest prop_flow_heap_model;
    Alcotest.test_case "flow_heap basics" `Quick test_flow_heap_basics;
    QCheck_alcotest.to_alcotest prop_flow_set_model;
    QCheck_alcotest.to_alcotest prop_iwfq_differential;
    QCheck_alcotest.to_alcotest prop_cifq_differential;
    QCheck_alcotest.to_alcotest prop_wps_differential;
    QCheck_alcotest.to_alcotest prop_csdps_differential;
    QCheck_alcotest.to_alcotest prop_arrive_equiv;
    QCheck_alcotest.to_alcotest prop_spread_matches_dense;
    Alcotest.test_case "never source" `Quick test_never_source;
    Alcotest.test_case "static channel" `Quick test_static_channel;
    QCheck_alcotest.to_alcotest prop_arrival_next_event_equiv;
    QCheck_alcotest.to_alcotest prop_channel_advance_run_equiv;
    QCheck_alcotest.to_alcotest prop_event_cal_model;
    Alcotest.test_case "fast path full-run identity" `Quick
      test_fast_path_full_run_identity;
    Alcotest.test_case "fast path probed degeneration" `Quick
      test_fast_path_probed_degenerates;
    Alcotest.test_case "topo+faults fast path identity" `Quick
      test_topo_fast_jobs_identity;
    Alcotest.test_case "fast path registry sweep" `Quick
      test_fast_path_registry_sweep;
  ]
