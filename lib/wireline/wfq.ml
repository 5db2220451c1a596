type tagged = { job : Job.t; finish : float }

type t = {
  gps : Gps.t;
  heap : tagged Wfs_util.Heap.t;  (* ordered by finish tag *)
}

let create ~capacity flows =
  {
    gps = Gps.create ~capacity flows;
    heap = Wfs_util.Heap.create ~leq:(fun a b -> a.finish <= b.finish) ();
  }

let enqueue t (job : Job.t) =
  let _start, finish =
    Gps.arrive t.gps ~time:job.arrival ~flow:job.flow ~size:job.size
  in
  Wfs_util.Heap.push t.heap { job; finish }

let dequeue t ~time =
  Gps.advance_to t.gps time;
  match Wfs_util.Heap.pop t.heap with
  | None -> None
  | Some { job; _ } -> Some job

let queued t = Wfs_util.Heap.length t.heap

let gps t = t.gps

let instance ~capacity flows =
  let t = create ~capacity flows in
  Sched_intf.make ~name:"WFQ" ~enqueue:(enqueue t)
    ~dequeue:(fun ~time -> dequeue t ~time)
    ~queued:(fun () -> queued t)
