type entry = {
  name : string;
  aliases : string list;
  predictor : Wfs_channel.Predictor.kind;
  make :
    ?credit_limit:int ->
    ?debit_limit:int ->
    ?limits:(int * int) array ->
    Params.flow array ->
    Wireless_sched.instance;
}

module Error = Wfs_util.Error

let keys_of e = List.map String.lowercase_ascii (e.name :: e.aliases)

(* Registration order is the presentation order (paper tables first), so
   a plain list, scanned linearly, is the right structure — it also keeps
   iteration deterministic, which a Hashtbl would not. *)
let store : entry list ref = ref []

let find name =
  let key = String.lowercase_ascii name in
  List.find_opt (fun e -> List.exists (String.equal key) (keys_of e)) !store

let mem name = Option.is_some (find name)
let names () = List.map (fun e -> e.name) !store
let entries () = !store

let register e =
  List.iter
    (fun key ->
      if Option.is_some (find key) then
        Error.invalidf "Registry.register" "%S is already registered" key)
    (keys_of e);
  store := !store @ [ e ]

let get name =
  match find name with
  | Some e -> e
  | None ->
      Error.invalidf "Registry.get" "unknown scheduler %S (known: %s)" name
        (String.concat ", " (names ()))

let lookup name =
  match find name with
  | Some e -> Ok e
  | None ->
      Stdlib.Error
        (Error.v Error.Bad_config ~who:"Registry.lookup"
           (Printf.sprintf "unknown scheduler %S" name)
           ~context:[ ("known", String.concat ", " (names ())) ])

(* --- built-ins, from the Presets variants --- *)

let of_preset ?(aliases = []) alg info =
  {
    name = Presets.algorithm_name alg info;
    aliases;
    predictor = Presets.predictor alg info;
    make =
      (fun ?credit_limit ?debit_limit ?limits flows ->
        Presets.scheduler ?credit_limit ?debit_limit ?limits alg flows);
  }

let table1_names =
  List.map
    (fun (alg, info) -> Presets.algorithm_name alg info)
    Presets.table1_algorithms

let table1 () = List.map get table1_names
let table1_extended () = table1 () @ [ get "IWFQ-I"; get "IWFQ-P" ]

let () =
  (* "WPS" is the paper's name for the full algorithm: SwapA running on
     one-step prediction.  The bare "IWFQ" / "CIF-Q" aliases resolve to the
     predicted variants for the same reason. *)
  let builtin_aliases name =
    match name with "SwapA-P" -> [ "WPS" ] | _ -> []
  in
  List.iter register
    (List.map
       (fun (alg, info) ->
         let e = of_preset alg info in
         { e with aliases = builtin_aliases e.name })
       Presets.table1_algorithms);
  List.iter register
    [
      of_preset Presets.Iwfq_alg Presets.Ideal;
      of_preset ~aliases:[ "IWFQ" ] Presets.Iwfq_alg Presets.Predicted;
      of_preset Presets.Cifq_alg Presets.Ideal;
      of_preset ~aliases:[ "CIF-Q"; "CIFQ" ] Presets.Cifq_alg Presets.Predicted;
      of_preset ~aliases:[ "CSDPS-P" ] Presets.Csdps_alg Presets.Predicted;
    ]
