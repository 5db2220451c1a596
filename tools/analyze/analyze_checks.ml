(* The A1–A3 analyses over an Analyze_model.model.  Each check reports
   into an Analysis_kit sink; ordering does not matter because the sink
   sorts globally, but every iteration below is still deterministic
   (definition order within units, units in the caller's sorted load
   order) so diagnostics — including via-chains inside messages — are
   byte-stable across runs.  A4 (suppression hygiene) lives in the driver
   because it needs source text, not the model. *)

module Diag = Analysis_kit.Diag
open Analyze_model

let all_defs m = List.concat_map (fun u -> u.u_defs) m.units

(* Report unless a justified allow-comment covers the site (consulting it
   marks the suppression used, which is what keeps A4 honest). *)
let emit ~allow ~sink d = if not (allow d) then Diag.report sink d

(* name -> defs (shadowing can produce several; taint merges them). *)
let index_defs defs =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun d ->
      let prev = Option.value (Hashtbl.find_opt tbl d.def_name) ~default:[] in
      Hashtbl.replace tbl d.def_name (prev @ [ d ]))
    defs;
  tbl

let in_lib d = d.def_role = Lib

let sanctioned_def d =
  List.exists
    (fun u ->
      String.equal d.def_unit u
      || (String.length d.def_unit > String.length u
          && String.sub d.def_unit 0 (String.length u) = u
          && d.def_unit.[String.length u] = '.'))
    sanctioned_units

let chain_string via =
  (* Keep both ends of a long chain: the first hops say where the flow
     enters, the last says what touches the source. *)
  let n = List.length via in
  let shown =
    if n > 6 then
      List.filteri (fun i _ -> i < 3) via
      @ [ "..." ]
      @ List.filteri (fun i _ -> i >= n - 2) via
    else via
  in
  String.concat " -> " shown

(* --- A1: determinism taint + typed comparator misuse --- *)

let direct_taint_msg d src =
  Printf.sprintf
    "%s uses ambient nondeterminism source %s; draw from the seeded \
     Wfs_util.Rng boundary instead"
    d.def_name src

let check_a1 m ~allow ~sink =
  let defs = all_defs m in
  (* evidence: def name -> (source, via chain, location to report) *)
  let tainted : (string, string * string list * Location.t) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Seed with direct uses of ambient sources.  A justified allow-comment
     on a lib seed asserts the definition's *result* is deterministic
     despite the source (e.g. hash-order folds erased by a sort), so a
     covered seed neither reports nor taints its callers. *)
  List.iter
    (fun d ->
      if not (sanctioned_def d) then
        match d.source_refs with
        | (src, loc) :: _ ->
            if not (Hashtbl.mem tainted d.def_name) then
              let justified =
                in_lib d
                && allow
                     (Diag.of_location ~rule:Analyze_rules.a1
                        ~message:(direct_taint_msg d src) loc)
              in
              if not justified then
                Hashtbl.replace tainted d.def_name (src, [], loc)
        | [] -> ())
    defs;
  (* Propagate along the call graph until fixpoint.  A call through the
     sanctioned Rng boundary never propagates (their defs are never
     tainted), so the cut is structural. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        if (not (Hashtbl.mem tainted d.def_name)) && not (sanctioned_def d)
        then
          match
            List.find_map
              (fun (n, loc) ->
                if String.equal n d.def_name then None
                else
                  match Hashtbl.find_opt tainted n with
                  | Some (src, via, _) -> Some (n, src, via, loc)
                  | None -> None)
              d.refs
          with
          | Some (n, src, via, loc) ->
              Hashtbl.replace tainted d.def_name (src, n :: via, loc);
              changed := true
          | None -> ())
      defs
  done;
  List.iter
    (fun d ->
      if in_lib d then begin
        (match Hashtbl.find_opt tainted d.def_name with
        | Some (src, [], loc) ->
            emit ~allow ~sink
              (Diag.of_location ~rule:Analyze_rules.a1
                 ~message:(direct_taint_msg d src) loc)
        | Some (src, via, loc) ->
            emit ~allow ~sink
              (Diag.of_location ~rule:Analyze_rules.a1
                 ~message:
                   (Printf.sprintf
                      "%s transitively reaches ambient nondeterminism \
                       source %s (via %s); thread the seeded Wfs_util.Rng \
                       state through this path"
                      d.def_name src (chain_string via))
                 loc)
        | None -> ());
        List.iter
          (fun (name, reason, loc) ->
            emit ~allow ~sink
              (Diag.of_location ~rule:Analyze_rules.a1
                 ~message:
                   (Printf.sprintf
                      "polymorphic runtime comparator %s instantiated at %s"
                      name reason)
                 loc))
          d.poly_cmps
      end)
    defs

(* --- A2: mutable state crossing a Domain.spawn / Pool boundary --- *)

let check_a2 m ~allow ~sink =
  let defs = all_defs m in
  (* Which defs (by name) transitively perform a module-global write. *)
  let writes : (string, (string * string list) option) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun d ->
      match d.global_writes with
      | (g, _) :: _ -> Hashtbl.replace writes d.def_name (Some (g, []))
      | [] -> ())
    defs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        if not (Hashtbl.mem writes d.def_name) then
          match
            List.find_map
              (fun (n, _) ->
                if String.equal n d.def_name then None
                else
                  match Hashtbl.find_opt writes n with
                  | Some (Some (g, via)) -> Some (n, g, via)
                  | _ -> None)
              d.refs
          with
          | Some (n, g, via) ->
              Hashtbl.replace writes d.def_name (Some (g, n :: via));
              changed := true
          | None -> ())
      defs
  done;
  List.iter
    (fun d ->
      if in_lib d then
        List.iter
          (fun s ->
            if s.resolved then begin
              List.iter
                (fun (var, kind, loc) ->
                  emit ~allow ~sink
                    (Diag.of_location ~rule:Analyze_rules.a2
                       ~message:
                         (Printf.sprintf
                            "thunk passed to %s captures mutable %s [%s]; \
                             guard it with a Mutex, switch to Atomic.t, or \
                             state the single-writer ownership invariant \
                             in an analyze: allow comment"
                            s.spawn_entry kind var)
                       loc))
                s.captures;
              (* Transitive module-global writes reachable from the thunk. *)
              let seen = Hashtbl.create 16 in
              List.iter
                (fun n ->
                  if not (Hashtbl.mem seen n) then begin
                    Hashtbl.replace seen n ();
                    match Hashtbl.find_opt writes n with
                    | Some (Some (g, via)) ->
                        emit ~allow ~sink
                          (Diag.of_location ~rule:Analyze_rules.a2
                             ~message:
                               (Printf.sprintf
                                  "thunk passed to %s reaches a write to \
                                   module-global %s (through %s); \
                                   cross-domain writes need a Mutex or \
                                   Atomic.t"
                                  s.spawn_entry g
                                  (chain_string (n :: via)))
                             s.spawn_loc)
                    | _ -> ()
                  end)
                s.thunk_refs
            end)
          d.spawns)
    defs;
  (* Direct global writes lexically inside a spawned thunk are attributed
     to the enclosing def; flag those too when the def spawns. *)
  List.iter
    (fun d ->
      if in_lib d && d.spawns <> [] then
        List.iter
          (fun (g, loc) ->
            List.iter
              (fun s ->
                if
                  s.resolved && s.spawn_loc.Location.loc_start.pos_cnum <= loc.Location.loc_start.pos_cnum
                  && loc.Location.loc_end.pos_cnum <= s.spawn_loc.Location.loc_end.pos_cnum
                then
                  emit ~allow ~sink
                    (Diag.of_location ~rule:Analyze_rules.a2
                       ~message:
                         (Printf.sprintf
                            "module-global %s is written inside a thunk \
                             passed to %s; cross-domain writes need a \
                             Mutex or Atomic.t"
                            g s.spawn_entry)
                       loc))
              d.spawns)
          d.global_writes)
    defs

(* --- A3: registry / probe / test coverage audit --- *)

type sched_unit = {
  su : unit_info;
  su_instance_loc : Location.t;
  su_probed : bool;
}

let check_a3 m ~allow ~sink =
  let defs = all_defs m in
  let by_name = index_defs defs in
  (* Scheduler units: lib units that construct a Wireless_sched.instance,
     excluding the module that declares the type itself. *)
  let sched_units =
    List.filter_map
      (fun u ->
        if u.u_role <> Lib then None
        else if
          match List.rev (String.split_on_char '.' u.u_name) with
          | last :: _ -> String.equal last "Wireless_sched"
          | [] -> false
        then None
        else
          let inst =
            List.find_map (fun d -> d.makes_instance) u.u_defs
          in
          match inst with
          | None -> None
          | Some loc ->
              Some
                {
                  su = u;
                  su_instance_loc = loc;
                  su_probed = List.exists (fun d -> d.wires_probe) u.u_defs;
                })
      m.units
  in
  (* Closure of everything reachable from a registry site: a register call,
     or a lookup (get/lookup/find) — the path cell-constructed scheduler
     instances take (Wfs_topo resolves an entry and calls entry.make), so
     they count as registry-reachable too. *)
  let register_name = "Wfs_core.Registry.register" in
  let seed_names =
    [
      register_name;
      "Wfs_core.Registry.get";
      "Wfs_core.Registry.lookup";
      "Wfs_core.Registry.find";
    ]
  in
  let reachable = Hashtbl.create 128 in
  let queue = Queue.create () in
  List.iter
    (fun d ->
      if
        List.exists
          (fun (n, _) -> List.exists (String.equal n) seed_names)
          d.refs
      then Queue.push d queue)
    defs;
  while not (Queue.is_empty queue) do
    let d = Queue.pop queue in
    if not (Hashtbl.mem reachable d.def_name) then begin
      Hashtbl.replace reachable d.def_name ();
      List.iter
        (fun (n, _) ->
          if not (Hashtbl.mem reachable n) then
            List.iter
              (fun callee -> Queue.push callee queue)
              (Option.value (Hashtbl.find_opt by_name n) ~default:[]))
        d.refs
    end
  done;
  let unit_prefix u = u.u_name ^ "." in
  let has_prefix p s =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  (* Test references: any ref from a test-role def into the unit. *)
  let test_refs = Hashtbl.create 128 in
  List.iter
    (fun d ->
      if d.def_role = Test then
        List.iter (fun (n, _) -> Hashtbl.replace test_refs n ()) d.refs)
    defs;
  List.iter
    (fun s ->
      let name = s.su.u_name in
      let registered =
        List.exists
          (fun d -> Hashtbl.mem reachable d.def_name)
          s.su.u_defs
      in
      if not registered then
        emit ~allow ~sink
          (Diag.of_location ~rule:Analyze_rules.a3
             ~message:
               (Printf.sprintf
                  "%s constructs a Wireless_sched.instance but is not \
                   reachable from any %s site; register it (or retire the \
                   module)"
                  name register_name)
             s.su_instance_loc);
      if not s.su_probed then
        emit ~allow ~sink
          (Diag.of_location ~rule:Analyze_rules.a3
             ~message:
               (Printf.sprintf
                  "%s wires no probe fields into its \
                   Wireless_sched.instance; the invariant monitors are \
                   blind to it — implement \
                   virtual_time/finish_tag/credit/lag_sum probes"
                  name)
             s.su_instance_loc);
      let referenced_from_tests =
        Hashtbl.fold
          (fun n () acc -> acc || has_prefix (unit_prefix s.su) n)
          test_refs false
      in
      if not referenced_from_tests then
        emit ~allow ~sink
          (Diag.of_location ~rule:Analyze_rules.a3
             ~message:
               (Printf.sprintf
                  "%s is never referenced from the test suite; the \
                   differential/lockstep tests cannot be exercising it"
                  name)
             s.su_instance_loc))
    sched_units;
  (* Dead fault kinds: every constructor of a Chaos fault taxonomy must be
     built or matched somewhere in the test suite, else the fault-injection
     tests cannot be exercising that failure path. *)
  let exercised = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if d.def_role = Test then
        List.iter (fun c -> Hashtbl.replace exercised c ()) d.constructs)
    defs;
  List.iter
    (fun (ty, cstr, loc) ->
      if not (Hashtbl.mem exercised (ty ^ "." ^ cstr)) then
        emit ~allow ~sink
          (Diag.of_location ~rule:Analyze_rules.a3
             ~message:
               (Printf.sprintf
                  "fault kind %s of %s is never constructed or matched by \
                   any test-role definition; the fault-injection suite \
                   cannot be exercising this failure path"
                  cstr ty)
             loc))
    m.fault_kinds;
  (* Dead xray event kinds: the same standard for the Causality instrument
     taxonomy — a handoff/fault event nobody ever builds or matches in a
     test means the causality replay suite has a blind spot. *)
  List.iter
    (fun (ty, cstr, loc) ->
      if not (Hashtbl.mem exercised (ty ^ "." ^ cstr)) then
        emit ~allow ~sink
          (Diag.of_location ~rule:Analyze_rules.a3
             ~message:
               (Printf.sprintf
                  "event kind %s of %s is never constructed or matched by \
                   any test-role definition; the xray causality replay \
                   suite cannot be exercising this instrument path"
                  cstr ty)
             loc))
    m.event_kinds

let run m ~allow ~sink =
  check_a1 m ~allow ~sink;
  check_a2 m ~allow ~sink;
  check_a3 m ~allow ~sink
