(* Model extraction for wfs_analyze: read the .cmt files dune produces and
   distill each compilation unit into the facts the analyses consume.

   Everything downstream works on *normalized names*: a dot-separated path
   ("Wfs_util.Rng.float") in which dune's module mangling ("Wfs_util__Rng",
   "Dune__exe__Test_iwfq") is unsplit, a leading Stdlib is dropped, local
   module aliases are resolved through the typedtree (which is what defeats
   the syntactic linter), and in-unit references are qualified with the
   unit path.  Because the typer has already resolved opens, aliases and
   include paths, two references to the same definition normalize to the
   same name regardless of how the source spelled them — the property the
   parsetree lint fundamentally lacks.

   The extraction is one walk per unit producing, per toplevel definition:
     - refs: every global value referenced (the approximate call graph);
     - source_refs: direct uses of ambient-nondeterminism sources (A1);
     - poly_cmps: uses of the polymorphic runtime comparator whose
       *instantiated* type is non-immediate (A1, alias-proof R2);
     - global_writes: writes to module-global mutable state (A2);
     - spawns: Domain.spawn / Pool.map(+_outcomes) call sites with the
       mutable state their thunk captures (A2);
     - makes_instance / wires_probe: Wireless_sched.instance and probe
       record constructions (A3).
   Functor bodies are skipped (no concrete instantiation to attribute
   facts to) — a documented approximation. *)

open Typedtree

type role = Lib | Test

type spawn = {
  spawn_entry : string;
  spawn_loc : Location.t;
  (* (variable, mutable kind, first use location) for every free variable
     of the thunk whose type is mutable and not an Atomic/Mutex class. *)
  captures : (string * string * Location.t) list;
  (* Global values the thunk references, for the transitive-write check. *)
  thunk_refs : string list;
  resolved : bool;  (* false when the thunk expression could not be found *)
}

type def = {
  def_name : string;
  def_unit : string;
  def_role : role;
  def_loc : Location.t;
  mutable refs : (string * Location.t) list;
  mutable source_refs : (string * Location.t) list;
  mutable poly_cmps : (string * string * Location.t) list;
  mutable global_writes : (string * Location.t) list;
  mutable makes_instance : Location.t option;
  mutable wires_probe : bool;
  mutable spawns : spawn list;
  mutable constructs : string list;
      (* normalized "<type path>.<constructor>" for every variant
         constructor this def builds or pattern-matches (A3 dead-fault) *)
}

type decl_kind =
  | Enum  (* variant, all constructors constant: an immediate *)
  | Structured  (* record or variant with payloads: runtime comparator *)
  | Mutable_decl  (* record with mutable fields *)
  | Alias of Types.type_expr

type unit_info = {
  u_name : string;
  u_role : role;
  u_file : string;
  mutable u_defs : def list;  (* in definition order *)
}

type model = {
  units : unit_info list;  (* in load order (sorted by the caller) *)
  decls : (string, decl_kind) Hashtbl.t;
  fault_kinds : (string * string * Location.t) list;
      (* (type full name, constructor, decl location) for every variant
         type named [fault] declared under a Chaos module — the fault
         taxonomy A3's dead-kind audit covers, in declaration order *)
  event_kinds : (string * string * Location.t) list;
      (* same shape for every variant type named [event] declared under a
         Causality module — the xray instrument taxonomy the A3 audit
         holds to the same never-dead standard *)
}

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* --- name normalization --- *)

(* "Wfs_util__Rng" -> ["Wfs_util"; "Rng"]; "Wfs_util__" -> ["Wfs_util"]. *)
let split_mangled s =
  let n = String.length s in
  let out = ref [] and start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '_' && s.[!i + 1] = '_' then begin
      if !i > !start then out := String.sub s !start (!i - !start) :: !out;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  if n > !start then out := String.sub s !start (n - !start) :: !out;
  List.rev !out

let rec path_segs (p : Path.t) =
  match p with
  | Pident id -> split_mangled (Ident.name id)
  | Pdot (p, s) -> path_segs p @ split_mangled s
  | Papply (a, _) -> path_segs a  (* approximate: name functor results by the functor *)
  | Pextra_ty (p, _) -> path_segs p

let drop_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | segs -> segs

type ctx = {
  unit_segs : string list;
  decls : (string, decl_kind) Hashtbl.t;  (* shared across all units *)
  aliases : (string, string list) Hashtbl.t;
      (* local module alias -> normalized target segments *)
  local_modules : (string, unit) Hashtbl.t;
      (* structure modules defined in this unit, for in-unit qualification *)
  toplevel : (string, string) Hashtbl.t;
      (* Ident.unique_name of unit-toplevel values -> normalized full name *)
  locals : (string, expression) Hashtbl.t;
      (* Ident.unique_name of let-bound values -> bound expression *)
}

let name_of_segs segs = String.concat "." segs

let normalize ctx p =
  let segs = drop_stdlib (path_segs p) in
  match segs with
  | [] -> ""
  | hd :: tl -> (
      match Hashtbl.find_opt ctx.aliases hd with
      | Some target -> name_of_segs (target @ tl)
      | None ->
          if Hashtbl.mem ctx.local_modules hd then
            name_of_segs (ctx.unit_segs @ segs)
          else name_of_segs segs)

(* A type path, qualified with the unit when it refers to an in-unit
   declaration ("t" inside rng.ml -> "Wfs_util.Rng.t").  Predefined types
   (int, list, option, ...) keep their bare names. *)
let normalize_type ctx (p : Path.t) =
  match p with
  | Pident id when not (Ident.is_predef id) -> (
      match split_mangled (Ident.name id) with
      | [ seg ]
        when (not (Hashtbl.mem ctx.aliases seg))
             && not (Hashtbl.mem ctx.local_modules seg) ->
          name_of_segs (ctx.unit_segs @ [ seg ])
      | _ -> normalize ctx p)
  | _ -> normalize ctx p

(* --- classification tables --- *)

let ambient_sources =
  [
    "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.times";
    "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param";
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.randomize";
    "Hashtbl.to_seq"; "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values";
    "Domain.self";
  ]

let is_ambient_source name =
  (String.length name > 7 && String.sub name 0 7 = "Random.")
  || String.equal name "Random"
  || List.mem name ambient_sources

(* The blessed determinism boundary: calls into these modules do not
   propagate taint, and definitions inside them are never tainted. *)
let sanctioned_units = [ "Wfs_util.Rng" ]

let in_sanctioned_unit unit_name =
  List.exists (String.equal unit_name) sanctioned_units

let is_sanctioned_call name =
  List.exists
    (fun u ->
      let lu = String.length u in
      String.length name > lu
      && String.sub name 0 lu = u
      && name.[lu] = '.')
    sanctioned_units

let spawn_entries =
  [ "Domain.spawn"; "Wfs_runner.Pool.map"; "Wfs_runner.Pool.map_outcomes" ]

(* (function, its first positional argument is mutated) *)
let mutator_calls =
  [
    "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Array.sort"; "Array.shuffle";
    "Bytes.set"; "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace";
    "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear";
    "Queue.transfer"; "Queue.add_seq";
    "Stack.push"; "Stack.pop"; "Stack.clear";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.clear"; "Buffer.reset"; "Buffer.truncate";
  ]

let poly_comparators = [ "compare"; "min"; "max" ]
let poly_operators = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* --- type classification --- *)

let rec head_constr decls fuel ty =
  if fuel = 0 then None
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) -> Some (p, args)
    | Tpoly (t, _) -> head_constr decls (fuel - 1) t
    | _ -> None

(* Mutability of a captured variable's type (A2). *)
type mutability = Mutable_kind of string | Sync_safe | Immutable_kind

let rec mutability_of ctx fuel ty =
  if fuel = 0 then Immutable_kind
  else
    match Types.get_desc ty with
    | Tpoly (t, _) -> mutability_of ctx (fuel - 1) t
    | Tconstr (p, _, _) -> (
        let n = normalize_type ctx p in
        match n with
        | "ref" -> Mutable_kind "ref cell"
        | "array" | "floatarray" | "Float.Array.t" -> Mutable_kind "array"
        | "bytes" | "Bytes.t" -> Mutable_kind "bytes"
        | "Buffer.t" -> Mutable_kind "Buffer.t"
        | "Hashtbl.t" -> Mutable_kind "Hashtbl.t"
        | "Queue.t" -> Mutable_kind "Queue.t"
        | "Stack.t" -> Mutable_kind "Stack.t"
        | "Atomic.t" | "Mutex.t" | "Condition.t" | "Semaphore.Counting.t"
        | "Semaphore.Binary.t" | "Domain.t" ->
            Sync_safe
        | _ -> (
            match Hashtbl.find_opt ctx.decls n with
            | Some Mutable_decl ->
                Mutable_kind (n ^ " (record with mutable fields)")
            | Some (Alias t) -> mutability_of ctx (fuel - 1) t
            | Some Enum | Some Structured | None -> Immutable_kind))
    | _ -> Immutable_kind

(* Is a comparison at this instantiated type safe for the polymorphic
   runtime comparator?  [`Flag reason] when it is not.  Unknown types err
   toward silence: the gate must stay clean on sound code. *)
let rec comparator_class ~operator ctx fuel ty =
  if fuel = 0 then `Ok
  else
    match Types.get_desc ty with
    | Tvar _ | Tunivar _ ->
        `Flag
          "a polymorphic type: the comparator escapes first-class and \
           cannot be specialized"
    | Tarrow _ -> `Flag "a function type: runtime comparison will raise"
    | Ttuple _ -> `Flag "a tuple: compare components explicitly"
    | Tpoly (t, _) -> comparator_class ~operator ctx (fuel - 1) t
    | Tconstr (p, _, _) -> (
        let n = normalize_type ctx p in
        match n with
        | "int" | "bool" | "char" | "unit" -> `Ok
        (* Operators on base scalar types specialize and stay
           deterministic; the style rules for them (R2/R3) are the
           syntactic tier's business.  Bare compare/min/max at these
           types is still flagged: it only reaches here via an alias. *)
        | "float" | "string" | "int32" | "int64" | "nativeint" ->
            if operator then `Ok
            else `Flag (Printf.sprintf "%s (use the typed comparator)" n)
        | "list" | "option" | "array" | "ref" | "result" | "lazy_t"
        | "Either.t" | "Seq.t" | "Queue.t" | "Stack.t" | "Hashtbl.t"
        | "Buffer.t" ->
            `Flag (n ^ ": deep structural comparison through the runtime")
        | _ -> (
            match Hashtbl.find_opt ctx.decls n with
            | Some Enum -> `Ok
            | Some (Alias t) -> comparator_class ~operator ctx (fuel - 1) t
            | Some Structured | Some Mutable_decl ->
                `Flag (n ^ ": structured type, compare through a typed equality")
            | None -> `Ok))
    | _ -> `Ok

(* First argument type of a (possibly 2-ary) comparator's instantiated
   type: [t -> t -> _] gives t; [t list -> ...] (List.mem's second arg)
   is handled by the caller choosing which arrow argument to look at. *)
let arrow_arg ty =
  match Types.get_desc ty with Tarrow (_, a, _, _) -> Some a | _ -> None

(* --- declaration collection (pass 1) --- *)

let decl_kind_of (td : Types.type_declaration) =
  match td.type_kind with
  | Type_variant (cstrs, _) ->
      let constant c =
        match c.Types.cd_args with Cstr_tuple [] -> true | _ -> false
      in
      if List.for_all constant cstrs then Some Enum else Some Structured
  | Type_record (lbls, _) ->
      if List.exists (fun l -> l.Types.ld_mutable = Mutable) lbls then
        Some Mutable_decl
      else Some Structured
  | _ -> (
      match td.type_manifest with Some t -> Some (Alias t) | None -> None)

let rec collect_decls ~decls ~faults ~events ~mpath str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_type (_, tds) ->
          List.iter
            (fun td ->
              (match decl_kind_of td.typ_type with
              | Some k ->
                  Hashtbl.replace decls
                    (name_of_segs (mpath @ [ Ident.name td.typ_id ]))
                    k
              | None -> ());
              match td.typ_type.Types.type_kind with
              | Type_variant (cstrs, _)
                when String.equal (Ident.name td.typ_id) "fault"
                     && List.exists (String.equal "Chaos") mpath ->
                  let ty = name_of_segs (mpath @ [ Ident.name td.typ_id ]) in
                  List.iter
                    (fun c ->
                      faults :=
                        (ty, Ident.name c.Types.cd_id, c.Types.cd_loc)
                        :: !faults)
                    cstrs
              | Type_variant (cstrs, _)
                when String.equal (Ident.name td.typ_id) "event"
                     && List.exists (String.equal "Causality") mpath ->
                  let ty = name_of_segs (mpath @ [ Ident.name td.typ_id ]) in
                  List.iter
                    (fun c ->
                      events :=
                        (ty, Ident.name c.Types.cd_id, c.Types.cd_loc)
                        :: !events)
                    cstrs
              | _ -> ())
            tds
      | Tstr_module mb -> collect_decls_module ~decls ~faults ~events ~mpath mb
      | Tstr_recmodule mbs ->
          List.iter (collect_decls_module ~decls ~faults ~events ~mpath) mbs
      | _ -> ())
    str.str_items

and collect_decls_module ~decls ~faults ~events ~mpath mb =
  let name =
    match mb.mb_name.txt with Some n -> n | None -> "_"
  in
  let rec go me =
    match me.mod_desc with
    | Tmod_structure s ->
        collect_decls ~decls ~faults ~events ~mpath:(mpath @ [ name ]) s
    | Tmod_constraint (me, _, _, _) -> go me
    | _ -> ()
  in
  go mb.mb_expr

(* --- definition extraction (pass 2) --- *)

let iter_pattern_vars (type k) f (p : k general_pattern) =
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k2) it (q : k2 general_pattern) ->
          (match q.pat_desc with
          | Tpat_var (id, _) -> f id
          | Tpat_alias (_, id, _) -> f id
          | _ -> ());
          Tast_iterator.default_iterator.pat it q);
    }
  in
  it.pat it p

(* Free-variable scan of a thunk: bound = every ident bound inside; used =
   Pident references in visit order.  Captures = used, minus bound, minus
   the unit's toplevel values (those are reached through the module, not
   the closure environment).  Also returns the global names the thunk
   references, so A2 can chase transitive global writes. *)
let thunk_captures ctx thunk =
  let bound = Hashtbl.create 32 in
  let used = ref [] in
  let grefs = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (q : k general_pattern) ->
          (match q.pat_desc with
          | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
          | Tpat_alias (_, id, _) ->
              Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.pat it q);
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (Pident id, _, _) -> (
              used := (id, e.exp_loc, e.exp_type) :: !used;
              match Hashtbl.find_opt ctx.toplevel (Ident.unique_name id) with
              | Some full -> grefs := full :: !grefs
              | None -> ())
          | Texp_ident ((Pdot _ as p), _, _) ->
              grefs := normalize ctx p :: !grefs
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it thunk;
  let seen = Hashtbl.create 16 in
  let captures =
    List.filter_map
      (fun (id, loc, ty) ->
        let key = Ident.unique_name id in
        if
          Hashtbl.mem bound key || Hashtbl.mem ctx.toplevel key
          || Hashtbl.mem seen key
        then None
        else begin
          Hashtbl.replace seen key ();
          match mutability_of ctx 20 ty with
          | Mutable_kind kind -> Some (Ident.name id, kind, loc)
          | Sync_safe | Immutable_kind -> None
        end)
      (List.rev !used)
  in
  (captures, List.rev !grefs)

let probe_labels =
  [ "virtual_time"; "finish_tag"; "credit"; "lag_sum"; "work_conserving" ]

let last2 name =
  match List.rev (String.split_on_char '.' name) with
  | b :: a :: _ -> Some (a, b)
  | _ -> None

(* The walk over one definition body. *)
let walk_def ctx (def : def) expr0 =
  let global_target e =
    (* An expression denoting module-global state: a toplevel value of
       this unit, or a value in another module. *)
    match e.exp_desc with
    | Texp_ident (Pident id, _, _) ->
        Hashtbl.find_opt ctx.toplevel (Ident.unique_name id)
    | Texp_ident ((Pdot _ as p), _, _) -> Some (normalize ctx p)
    | _ -> None
  in
  let first_positional args =
    List.find_map
      (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
      args
  in
  let record_construct (cstr : Types.constructor_description) =
    (* Name the constructor by its result type's normalized path, the same
       key collect_decls uses for the fault taxonomy. *)
    match head_constr ctx.decls 20 cstr.Types.cstr_res with
    | Some (p, _) ->
        def.constructs <-
          (normalize_type ctx p ^ "." ^ cstr.Types.cstr_name)
          :: def.constructs
    | None -> ()
  in
  let record_poly_cmp name e =
    (* [name] is a Stdlib comparator; classify its instantiation via the
       first arrow argument of the occurrence's type (for List.mem that
       is the element, which is what we want). *)
    let operator = List.mem name poly_operators in
    match arrow_arg e.exp_type with
    | None -> ()  (* eta-reduced into an unknown shape; stay silent *)
    | Some ty -> (
        match comparator_class ~operator ctx 20 ty with
        | `Ok -> ()
        | `Flag reason ->
            def.poly_cmps <- (name, reason, e.exp_loc) :: def.poly_cmps)
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match p with
              | Pident id -> (
                  match Hashtbl.find_opt ctx.toplevel (Ident.unique_name id) with
                  | Some full -> def.refs <- (full, e.exp_loc) :: def.refs
                  | None -> ())
              | _ ->
                  let n = normalize ctx p in
                  def.refs <- (n, e.exp_loc) :: def.refs;
                  if is_ambient_source n then
                    def.source_refs <- (n, e.exp_loc) :: def.source_refs;
                  if
                    List.mem n poly_comparators
                    || List.mem n poly_operators
                    || String.equal n "List.mem"
                  then record_poly_cmp n e)
          | Texp_apply (fn, args) -> (
              match fn.exp_desc with
              | Texp_ident (p, _, _) -> (
                  let n = normalize ctx p in
                  (if String.equal n ":=" then
                     match args with
                     | (Asttypes.Nolabel, Some tgt) :: _ -> (
                         match global_target tgt with
                         | Some g ->
                             def.global_writes <-
                               (g, e.exp_loc) :: def.global_writes
                         | None -> ())
                     | _ -> ());
                  (if List.mem n mutator_calls then
                     match first_positional args with
                     | Some tgt -> (
                         match global_target tgt with
                         | Some g ->
                             def.global_writes <-
                               (g, e.exp_loc) :: def.global_writes
                         | None -> ())
                     | None -> ());
                  if List.mem n spawn_entries then
                    (* The thunk: a function literal or a let-bound ident
                       is scanned for captures; a module-level function is
                       resolved by name so the call-graph write check can
                       chase it. *)
                    let thunk, named =
                      match first_positional args with
                      | Some ({ exp_desc = Texp_function _; _ } as f) ->
                          (Some f, [])
                      | Some { exp_desc = Texp_ident (Pident id, _, _); _ }
                        -> (
                          let key = Ident.unique_name id in
                          match Hashtbl.find_opt ctx.locals key with
                          | Some body -> (Some body, [])
                          | None -> (
                              match Hashtbl.find_opt ctx.toplevel key with
                              | Some full -> (None, [ full ])
                              | None -> (None, [])))
                      | Some { exp_desc = Texp_ident ((Pdot _ as p), _, _); _ }
                        ->
                          (None, [ normalize ctx p ])
                      | _ -> (None, [])
                    in
                    let spawn =
                      match thunk with
                      | Some body ->
                          let captures, thunk_refs =
                            thunk_captures ctx body
                          in
                          {
                            spawn_entry = n;
                            spawn_loc = e.exp_loc;
                            captures;
                            thunk_refs;
                            resolved = true;
                          }
                      | None ->
                          {
                            spawn_entry = n;
                            spawn_loc = e.exp_loc;
                            captures = [];
                            thunk_refs = named;
                            resolved = named <> [];
                          }
                    in
                    def.spawns <- spawn :: def.spawns)
              | _ -> ())
          | Texp_record { fields; extended_expression; _ } -> (
              match head_constr ctx.decls 20 e.exp_type with
              | Some (p, _) -> (
                  match last2 (normalize_type ctx p) with
                  | Some ("Wireless_sched", "instance") ->
                      if def.makes_instance = None then
                        def.makes_instance <- Some e.exp_loc
                  | Some ("Wireless_sched", "probe") ->
                      let nontrivial (d : record_label_definition) =
                        match d with
                        | Overridden (_, ex) -> (
                            match ex.exp_desc with
                            | Texp_construct (_, c, _) ->
                                not
                                  (List.mem c.Types.cstr_name
                                     [ "None"; "false" ])
                            | _ -> true)
                        | _ -> false
                      in
                      if
                        Array.exists
                          (fun (lbl, d) ->
                            List.mem lbl.Types.lbl_name probe_labels
                            && nontrivial d)
                          fields
                        || (extended_expression <> None
                            && Array.exists
                                 (fun (_, d) ->
                                   match d with
                                   | Overridden _ -> true
                                   | _ -> false)
                                 fields)
                      then def.wires_probe <- true
                  | _ -> ())
              | None -> ())
          | Texp_construct (_, cstr, _) -> record_construct cstr
          | Texp_setfield (tgt, _, _, _) -> (
              match global_target tgt with
              | Some g -> def.global_writes <- (g, e.exp_loc) :: def.global_writes
              | None -> ())
          | Texp_letmodule (_, name, _, me, _) -> (
              match (name.txt, me.mod_desc) with
              | Some n, Tmod_ident (p, _) ->
                  Hashtbl.replace ctx.aliases n (drop_stdlib (path_segs p))
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
      pat =
        (fun (type k) it (q : k general_pattern) ->
          (match q.pat_desc with
          | Tpat_construct (_, cstr, _, _) -> record_construct cstr
          | _ -> ());
          Tast_iterator.default_iterator.pat it q);
      value_binding =
        (fun it vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) ->
              Hashtbl.replace ctx.locals (Ident.unique_name id) vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.expr it expr0;
  def.refs <- List.rev def.refs;
  def.source_refs <- List.rev def.source_refs;
  def.poly_cmps <- List.rev def.poly_cmps;
  def.global_writes <- List.rev def.global_writes;
  def.spawns <- List.rev def.spawns;
  def.constructs <- List.rev def.constructs

(* Structure walk: register aliases/local modules/toplevel names first (so
   in-unit references resolve), then extract one def per value binding. *)
let rec walk_structure ctx u ~mpath str =
  (* Registration pre-pass for this level. *)
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              iter_pattern_vars
                (fun id ->
                  Hashtbl.replace ctx.toplevel (Ident.unique_name id)
                    (name_of_segs (mpath @ [ Ident.name id ])))
                vb.vb_pat)
            vbs
      | Tstr_include incl ->
          (* Values bound by [include] (e.g. of a functor application)
             are toplevel values of this unit; qualify them so in-unit
             Pident references resolve to the unit path. *)
          List.iter
            (fun (si : Types.signature_item) ->
              match si with
              | Types.Sig_value (id, _, _) ->
                  Hashtbl.replace ctx.toplevel (Ident.unique_name id)
                    (name_of_segs (mpath @ [ Ident.name id ]))
              | _ -> ())
            incl.incl_type
      | Tstr_module mb | Tstr_recmodule [ mb ] -> (
          match mb.mb_name.txt with
          | Some n -> (
              let rec target me =
                match me.mod_desc with
                | Tmod_ident (p, _) -> Some (drop_stdlib (path_segs p))
                | Tmod_constraint (me, _, _, _) -> target me
                | _ -> None
              in
              match target mb.mb_expr with
              | Some segs -> Hashtbl.replace ctx.aliases n segs
              | None -> Hashtbl.replace ctx.local_modules n ())
          | None -> ())
      | _ -> ())
    str.str_items;
  (* Extraction pass. *)
  let init_count = ref 0 in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let name =
                let found = ref None in
                iter_pattern_vars
                  (fun id -> if !found = None then found := Some (Ident.name id))
                  vb.vb_pat;
                match !found with
                | Some n -> n
                | None ->
                    incr init_count;
                    Printf.sprintf "(init:%d)" !init_count
              in
              let def =
                {
                  def_name = name_of_segs (mpath @ [ name ]);
                  def_unit = name_of_segs mpath;
                  def_role = u.u_role;
                  def_loc = vb.vb_loc;
                  refs = [];
                  source_refs = [];
                  poly_cmps = [];
                  global_writes = [];
                  makes_instance = None;
                  wires_probe = false;
                  spawns = [];
                  constructs = [];
                }
              in
              walk_def ctx def vb.vb_expr;
              u.u_defs <- u.u_defs @ [ def ])
            vbs
      | Tstr_eval (e, _) ->
          incr init_count;
          let def =
            {
              def_name =
                name_of_segs
                  (mpath @ [ Printf.sprintf "(init:%d)" !init_count ]);
              def_unit = name_of_segs mpath;
              def_role = u.u_role;
              def_loc = item.str_loc;
              refs = [];
              source_refs = [];
              poly_cmps = [];
              global_writes = [];
              makes_instance = None;
              wires_probe = false;
              spawns = [];
              constructs = [];
            }
          in
          walk_def ctx def e;
          u.u_defs <- u.u_defs @ [ def ]
      | Tstr_module mb -> walk_module ctx u ~mpath mb
      | Tstr_recmodule mbs -> List.iter (walk_module ctx u ~mpath) mbs
      | _ -> ())
    str.str_items

and walk_module ctx u ~mpath mb =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  let rec go me =
    match me.mod_desc with
    | Tmod_structure s -> walk_structure ctx u ~mpath:(mpath @ [ name ]) s
    | Tmod_constraint (me, _, _, _) -> go me
    | _ -> ()  (* functors, applications: skipped (documented) *)
  in
  go mb.mb_expr

(* --- loading --- *)

let read_structure path =
  match Cmt_format.read_cmt path with
  | exception Sys_error msg -> failf "%s: %s" path msg
  | exception _ -> failf "%s: not a readable .cmt (compiler mismatch?)" path
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          Some (cmt.Cmt_format.cmt_modname, cmt.Cmt_format.cmt_sourcefile, str)
      | _ -> None)

let load inputs =
  let decls = Hashtbl.create 512 in
  let read =
    List.filter_map
      (fun (path, role) ->
        match read_structure path with
        | Some (modname, src, str) -> Some (modname, src, str, role)
        | None -> None)
      inputs
  in
  (* Dedup by unit name (byte and native compilations both leave a cmt);
     first occurrence wins and the caller feeds paths sorted. *)
  let seen = Hashtbl.create 64 in
  let read =
    List.filter
      (fun (modname, _, _, _) ->
        if Hashtbl.mem seen modname then false
        else begin
          Hashtbl.replace seen modname ();
          true
        end)
      read
  in
  (* Pass 1: declarations from every unit, so cross-module type references
     classify correctly during extraction. *)
  let faults = ref [] in
  let events = ref [] in
  List.iter
    (fun (modname, _, str, _) ->
      collect_decls ~decls ~faults ~events ~mpath:(split_mangled modname) str)
    read;
  (* Pass 2: definitions. *)
  let units =
    List.map
      (fun (modname, src, str, role) ->
        let unit_segs = split_mangled modname in
        let u =
          {
            u_name = name_of_segs unit_segs;
            u_role = role;
            u_file = Option.value src ~default:(name_of_segs unit_segs);
            u_defs = [];
          }
        in
        let ctx =
          {
            unit_segs;
            decls;
            aliases = Hashtbl.create 16;
            local_modules = Hashtbl.create 16;
            toplevel = Hashtbl.create 64;
            locals = Hashtbl.create 64;
          }
        in
        walk_structure ctx u ~mpath:unit_segs str;
        u)
      read
  in
  {
    units;
    decls;
    fault_kinds = List.rev !faults;
    event_kinds = List.rev !events;
  }
