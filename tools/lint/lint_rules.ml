(* The wfs_lint rule set, as an Ast_iterator walk over compiler-libs
   parsetrees.

   The rules formalize the determinism contract of the simulator: every
   published table must be bit-reproducible from a scenario and a seed, so
   no code path in lib/ may consult ambient state (R1), compare through
   the polymorphic runtime on non-immediate values (R2), test computed
   floats for exact equality (R3), use physical equality without a stated
   identity invariant (R4), or let container exceptions escape a hot path
   unhandled (R5).  bin/, bench/ and examples/ are held to R4 only — they
   render results rather than produce them.

   Everything here is purely syntactic (parsetree, not typedtree), so each
   detector errs toward the patterns that actually occur in this tree; the
   known blind spots are documented per rule in docs/LINT.md. *)

open Parsetree
module Diag = Analysis_kit.Diag

type file_class = Lib | Other

(* --- the rule table --- *)

let r1 = { Diag.id = "R1"; title = "ambient nondeterminism" }
let r2 = { Diag.id = "R2"; title = "polymorphic comparison" }
let r3 = { Diag.id = "R3"; title = "exact float equality" }
let r4 = { Diag.id = "R4"; title = "physical equality" }
let r5 = { Diag.id = "R5"; title = "bare exception escape" }
let r6 = { Diag.id = "R6"; title = "untyped error raising" }
let r7 = { Diag.id = "R7"; title = "allocation in hot scope" }
let r8 = { Diag.id = "R8"; title = "direct printing in library code" }
let supp = { Diag.id = "SUPP"; title = "suppression hygiene" }
let all_rules = [ r1; r2; r3; r4; r5; r6; r7; r8; supp ]

let rule_of_id tok =
  let tok = String.uppercase_ascii tok in
  List.find_opt (fun r -> String.equal r.Diag.id tok) all_rules

(* --- longident helpers --- *)

let name_of_lid lid =
  match Longident.flatten lid with
  | exception _ -> ""
  | parts -> String.concat "." parts

let drop_stdlib n =
  if String.length n > 7 && String.sub n 0 7 = "Stdlib." then
    String.sub n 7 (String.length n - 7)
  else n

let head_module n = match String.index_opt n '.' with
  | Some i -> String.sub n 0 i
  | None -> ""

let last_component n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

(* --- R1: ambient nondeterminism --- *)

let r1_message name =
  match head_module name with
  | "Random" ->
      Printf.sprintf
        "%s uses the ambient global RNG; draw from a seeded Wfs_util.Rng \
         stream threaded through the scenario instead" name
  | "Unix" | "Sys" ->
      Printf.sprintf
        "%s reads wall-clock state; simulation time must flow through \
         slot indices only" name
  | _ ->
      Printf.sprintf
        "%s visits bindings in hash order, which is not a stable order \
         (and is randomizable via OCAMLRUNPARAM=R); collect the bindings \
         and sort by key, or keep an explicit key list" name

let r1_exact =
  [
    "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time";
    "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param";
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.randomize";
    "Hashtbl.to_seq"; "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values";
  ]

let r1_match name =
  head_module name = "Random" || List.mem name r1_exact

(* --- R2: polymorphic comparison --- *)

let r2_poly_funs = [ "compare"; "min"; "max" ]

let r2_fun_message name =
  if name = "List.mem" then
    "List.mem compares with polymorphic equality; use List.memq for \
     immediates or List.exists with an explicit equality"
  else
    Printf.sprintf
      "polymorphic %s goes through the runtime comparator and cannot be \
       specialized when passed first-class; use Int.%s / Float.%s or a \
       module-explicit comparator" name name name

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let rec strip e =
  match e.pexp_desc with Pexp_constraint (e', _) -> strip e' | _ -> e

(* Operands whose syntax proves a non-immediate (structural) comparison. *)
let structural_kind e =
  match (strip e).pexp_desc with
  | Pexp_tuple _ -> Some "tuple operand: compare fields explicitly"
  | Pexp_record _ -> Some "record operand: compare fields explicitly"
  | Pexp_array _ -> Some "array operand: compare elementwise"
  | Pexp_constant (Pconst_string _) ->
      Some "string operand: use String.equal / String.compare"
  | Pexp_construct ({ txt; _ }, arg) -> (
      match (name_of_lid txt, arg) with
      | ("[]" | "::"), _ ->
          Some "list operand: match on the shape or use List.is_empty / List.equal"
      | "None", _ -> Some "option operand: use Option.is_none"
      | "Some", _ -> Some "option operand: use Option.is_some / Option.equal"
      | _, Some _ -> Some "constructor payload: compare through a typed equality"
      | _, None -> None)
  | _ -> None

(* --- R3: exact float equality --- *)

let float_idents =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

let float_funs =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "sqrt"; "exp"; "log"; "log10";
    "expm1"; "log1p"; "floor"; "ceil"; "abs_float"; "mod_float"; "copysign";
    "float_of_int"; "float_of_string"; "ldexp"; "frexp";
  ]

(* Float.* functions that do NOT return float. *)
let float_module_nonfloat =
  [
    "Float.compare"; "Float.equal"; "Float.hash"; "Float.to_int";
    "Float.to_string"; "Float.is_nan"; "Float.is_finite"; "Float.is_integer";
    "Float.sign_bit"; "Float.classify_float";
  ]

let is_float_const e =
  let rec go e =
    match (strip e).pexp_desc with
    | Pexp_constant (Pconst_float _) -> true
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, arg) ])
      when drop_stdlib (name_of_lid txt) = "~-." ->
        go arg
    | _ -> false
  in
  go e

let is_floaty e =
  match (strip e).pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } ->
      let n = drop_stdlib (name_of_lid txt) in
      List.mem n float_idents || n = "Float.pi"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let n = drop_stdlib (name_of_lid txt) in
      List.mem n float_funs
      || (head_module n = "Float" && not (List.mem n float_module_nonfloat))
  | _ -> false

(* --- R7: allocation in hot scopes --- *)

(* Scope marker: a [@hot] attribute on a let-binding (the usual form) or on
   an expression marks its body as a per-slot hot path.  Inside, closure
   literals and the fresh-container combinators below are flagged: each
   allocates on every execution, which is exactly what the preallocated
   scratch / hoisted-closure discipline of the optimized schedulers exists
   to avoid.  Purely syntactic, like everything here: partial applications
   (which also allocate) and allocations hidden in callees are known blind
   spots, reviewed by hand. *)

let has_hot_attr attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = "hot") attrs

let r7_banned_calls =
  [
    "Array.map"; "Array.mapi"; "Array.init"; "Array.make";
    "Array.create_float"; "Array.make_matrix"; "Array.copy"; "Array.append";
    "Array.concat"; "Array.sub"; "Array.to_list"; "Array.of_list";
    "List.map"; "List.mapi"; "List.init"; "List.append"; "List.concat";
    "List.concat_map"; "List.filter"; "List.filter_map"; "List.rev_map";
    "List.rev"; "List.sort"; "List.stable_sort"; "List.sort_uniq";
  ]

let r7_call_message n =
  Printf.sprintf
    "%s allocates a fresh container on every pass through a [@hot] scope; \
     preallocate scratch outside the loop and fill it in place, or hoist \
     the computation out of the hot path" n

let r7_closure_message =
  "closure literal inside a [@hot] scope allocates on every pass; hoist it \
   to a toplevel function or a field preallocated at construction time \
   (see Iwfq.accept_eligible for the stash-field pattern)"

(* --- R8: direct printing in library code --- *)

(* Library code must stay silent: simulators and schedulers are driven by
   CLIs, the bench, and tests, all of which own stdout/stderr (the bench
   parses its own output; --csv pipes must stay clean).  Rendering belongs
   in returned values (strings, Tablefmt.t) and printing in bin/ and
   bench/.  The matcher is syntactic, so [Printf.sprintf] (which only
   builds a string) is untouched. *)

let r8_banned =
  [
    "print_string"; "print_endline"; "print_char"; "print_newline";
    "print_int"; "print_float"; "print_bytes";
    "prerr_string"; "prerr_endline"; "prerr_char"; "prerr_newline";
    "prerr_int"; "prerr_float"; "prerr_bytes";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.print_string"; "Format.print_newline";
  ]

let r8_message n =
  Printf.sprintf
    "%s writes to the process's standard channels from library code; \
     return a string or a Wfs_util.Tablefmt.t and let the binary decide \
     where output goes (bench --csv pipes and the runner's progress lines \
     must stay clean)" n

(* --- R6: untyped error raising --- *)

let r6_message what =
  Printf.sprintf
    "%s bypasses the typed error taxonomy; raise through Wfs_util.Error \
     (Error.invalid / Error.invalidf for the Invalid_argument convention, \
     bad_spec / bad_config / sim_fault for typed kinds) so sweep drivers \
     can classify and report the failure"
    what

(* --- R5: bare exception escapes --- *)

(* function -> (exception it raises, total replacement) *)
let r5_table =
  [
    ("Queue.pop", ("Queue.Empty", "Queue.take_opt"));
    ("Queue.take", ("Queue.Empty", "Queue.take_opt"));
    ("Queue.peek", ("Queue.Empty", "Queue.peek_opt"));
    ("Queue.top", ("Queue.Empty", "Queue.peek_opt"));
    ("Hashtbl.find", ("Not_found", "Hashtbl.find_opt"));
    ("List.assoc", ("Not_found", "List.assoc_opt"));
    ("List.find", ("Not_found", "List.find_opt"));
  ]

(* Exception constructors named by a try-case pattern. *)
let rec exn_names_of_pattern p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> [ drop_stdlib (name_of_lid txt) ]
  | Ppat_or (a, b) -> exn_names_of_pattern a @ exn_names_of_pattern b
  | Ppat_alias (p, _) -> exn_names_of_pattern p
  | Ppat_any | Ppat_var _ -> [ "*" ]
  | _ -> []

(* Exception constructors handled by a match's [exception p] cases. *)
let rec exn_cases_of_pattern p =
  match p.ppat_desc with
  | Ppat_exception q -> exn_names_of_pattern q
  | Ppat_or (a, b) -> exn_cases_of_pattern a @ exn_cases_of_pattern b
  | Ppat_alias (p, _) -> exn_cases_of_pattern p
  | _ -> []

let exn_matches ~handled exn =
  handled = "*" || handled = exn || handled = last_component exn

(* --- the walk --- *)

let check_file ~file_class ?(r6_exempt = false) ~sink ~suppress
    structure_or_sig =
  (* Stack of handled-exception sets: one frame per enclosing [try] body or
     [match] scrutinee currently being visited. *)
  let ctx : string list list ref = ref [] in
  (* Nesting depth of [@hot] scopes currently being visited (R7). *)
  let hot = ref 0 in
  let exn_handled exn =
    List.exists (List.exists (fun h -> exn_matches ~handled:h exn)) !ctx
  in
  let report ~loc ~rule msg =
    let d = Diag.of_location ~rule ~message:msg loc in
    if not (Analysis_kit.Suppress.covers suppress d) then Diag.report sink d
  in
  let check_ident txt loc =
    let n = drop_stdlib (name_of_lid txt) in
    if file_class = Lib then begin
      if r1_match n then report ~loc ~rule:r1 (r1_message n);
      if !hot > 0 && List.mem n r7_banned_calls then
        report ~loc ~rule:r7 (r7_call_message n);
      if List.mem n r2_poly_funs || n = "List.mem" then
        report ~loc ~rule:r2 (r2_fun_message n);
      if List.mem n r8_banned then
        report ~loc ~rule:r8 (r8_message n);
      if (n = "failwith" || n = "invalid_arg") && not r6_exempt then
        report ~loc ~rule:r6 (r6_message ("bare " ^ n));
      match List.assoc_opt n r5_table with
      | Some (exn, replacement) ->
          if not (exn_handled exn) then
            report ~loc ~rule:r5
              (Printf.sprintf
                 "%s may raise %s across the hot path; use %s or handle %s \
                  locally (try / match-exception around this call)"
                 n exn replacement exn)
      | None -> ()
    end
  in
  let check_apply e fn args =
    match (strip fn).pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let n = drop_stdlib (name_of_lid txt) in
        let operands = List.map snd args in
        match (n, operands) with
        | ("==" | "!="), _ ->
            report ~loc:e.pexp_loc ~rule:r4
              (Printf.sprintf
                 "physical equality %s: use structural (=) on immutable data, \
                  or state the mutable-identity invariant in a lint \
                  allow-comment" n)
        | ("=" | "<>"), [ a; b ]
          when file_class = Lib
               && (is_floaty a || is_floaty b)
               && not (is_float_const a && is_float_const b) ->
            report ~loc:e.pexp_loc ~rule:r3
              (Printf.sprintf
                 "exact float %s on a computed value: virtual times and \
                  credits accumulate rounding, so exact equality is \
                  load-bearing luck; compare against a tolerance, an \
                  inequality, or document the sentinel" n)
        | "raise", [ arg ]
          when file_class = Lib && not r6_exempt -> (
            match (strip arg).pexp_desc with
            | Pexp_construct ({ txt; _ }, _)
              when List.mem
                     (drop_stdlib (name_of_lid txt))
                     [ "Invalid_argument"; "Failure" ] ->
                report ~loc:e.pexp_loc ~rule:r6
                  (r6_message
                     ("raise "
                     ^ drop_stdlib (name_of_lid txt)))
            | _ -> ())
        | op, a :: b :: _ when file_class = Lib && List.mem op comparison_ops
          -> (
            match
              match structural_kind a with
              | Some k -> Some k
              | None -> structural_kind b
            with
            | Some kind ->
                report ~loc:e.pexp_loc ~rule:r2
                  (Printf.sprintf
                     "polymorphic %s on a non-immediate value (%s)" op kind)
            | None -> ())
        | _ -> ())
    | _ -> ()
  in
  (* Skip over an annotated binding's own parameter list: the leading
     lambda chain IS the hot function, not a closure allocated inside it.
     Parameter patterns and optional-argument defaults are visited normally
     on the way down. *)
  let rec hot_strip self e =
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (self.Ast_iterator.expr self) default;
        self.Ast_iterator.pat self pat;
        hot_strip self body
    | Pexp_newtype (_, body) -> hot_strip self body
    | _ -> e
  in
  let expr self e =
    let dispatch e =
      match e.pexp_desc with
      | Pexp_try (body, cases) ->
          let handled = List.concat_map (fun c -> exn_names_of_pattern c.pc_lhs) cases in
          ctx := handled :: !ctx;
          self.Ast_iterator.expr self body;
          ctx := List.tl !ctx;
          List.iter (self.Ast_iterator.case self) cases
      | Pexp_match (scrut, cases) ->
          let handled = List.concat_map (fun c -> exn_cases_of_pattern c.pc_lhs) cases in
          ctx := handled :: !ctx;
          self.Ast_iterator.expr self scrut;
          ctx := List.tl !ctx;
          List.iter (self.Ast_iterator.case self) cases
      | Pexp_ident { txt; loc } -> check_ident txt loc
      | Pexp_apply (fn, args) ->
          check_apply e fn args;
          Ast_iterator.default_iterator.expr self e
      | (Pexp_fun _ | Pexp_function _) when file_class = Lib && !hot > 0 ->
          report ~loc:e.pexp_loc ~rule:r7 r7_closure_message;
          Ast_iterator.default_iterator.expr self e
      | _ -> Ast_iterator.default_iterator.expr self e
    in
    if has_hot_attr e.pexp_attributes then begin
      incr hot;
      dispatch (hot_strip self e);
      decr hot
    end
    else dispatch e
  in
  let value_binding self vb =
    if has_hot_attr vb.pvb_attributes then begin
      self.Ast_iterator.pat self vb.pvb_pat;
      incr hot;
      self.Ast_iterator.expr self (hot_strip self vb.pvb_expr);
      decr hot
    end
    else Ast_iterator.default_iterator.value_binding self vb
  in
  let iterator = { Ast_iterator.default_iterator with expr; value_binding } in
  match structure_or_sig with
  | `Impl structure -> iterator.structure iterator structure
  | `Intf signature -> iterator.signature iterator signature
