type scenario =
  | Example of { n : int; sum : float option }
  | File of string

type faults = {
  crash : float;
  recover : float;
  lose : float;
  corrupt : float;
  blackout : float;
  blackout_len : int;
  exn : float;
  persist : float;
  budget : int;
}

type topo = {
  cells : int;
  mobility : float;
  epoch : int;
  faults : faults option;
}

type t = {
  scenario : scenario;
  sched : string;
  seed : int;
  horizon : int;
  topo : topo option;
}

let default_seed = 42
let default_horizon = 200_000

let example ?sum n =
  if n < 1 || n > 6 then
    Wfs_util.Error.invalidf "Spec.example" "unknown example %d (use 1-6)" n;
  if n > 2 && Option.is_some sum then
    Wfs_util.Error.invalidf "Spec.example"
      "sum (pg+pe) is only a knob of examples 1-2, not %d" n;
  Example { n; sum }

let file path = File path

let faults ?(crash = 0.) ?(recover = 0.) ?(lose = 0.) ?(corrupt = 0.)
    ?(blackout = 0.) ?(blackout_len = 1) ?(exn = 0.) ?(persist = 0.)
    ?(budget = 0) () =
  let rate name r =
    if not (r >= 0. && r <= 1.) then
      Wfs_util.Error.invalidf "Spec.faults" "%s must be in [0,1], got %g" name r
  in
  rate "crash" crash;
  rate "recover" recover;
  rate "lose" lose;
  rate "corrupt" corrupt;
  rate "blackout" blackout;
  rate "exn" exn;
  rate "persist" persist;
  if blackout_len < 1 then
    Wfs_util.Error.invalidf "Spec.faults" "blackout length must be >= 1, got %d"
      blackout_len;
  if budget < 0 then
    Wfs_util.Error.invalidf "Spec.faults" "budget must be >= 0, got %d" budget;
  { crash; recover; lose; corrupt; blackout; blackout_len; exn; persist; budget }

(* Recovery, persistence and the budget only shape how injected faults
   play out; a plan is inert unless at least one injection rate is
   positive — and an inert plan must leave the run byte-identical to a
   plan-less spec, so this predicate gates every chaos hook. *)
let faults_active p =
  p.crash > 0. || p.lose > 0. || p.corrupt > 0. || p.blackout > 0. || p.exn > 0.

let topo ~cells ~mobility ~epoch =
  if cells < 1 then
    Wfs_util.Error.invalidf "Spec.topo" "cells must be >= 1, got %d" cells;
  if epoch < 1 then
    Wfs_util.Error.invalidf "Spec.topo" "epoch must be >= 1, got %d" epoch;
  if not (mobility >= 0. && mobility <= 1.) then
    Wfs_util.Error.invalidf "Spec.topo" "mobility must be in [0,1], got %g"
      mobility;
  { cells; mobility; epoch; faults = None }

let with_faults faults tp = { tp with faults = Some faults }

let check_horizon who horizon =
  if horizon <= 0 then
    Wfs_util.Error.invalidf who "non-positive horizon %d" horizon

let make ?(seed = default_seed) ?(horizon = default_horizon) ?topo ~sched
    scenario =
  check_horizon "Spec.make" horizon;
  { scenario; sched; seed; horizon; topo }

let with_seed seed t = { t with seed }

let replicas n t =
  if n < 1 then Wfs_util.Error.invalidf "Spec.replicas" "need n >= 1, got %d" n;
  List.init n (fun k -> with_seed (t.seed + k) t)

let with_horizon horizon t =
  make ~seed:t.seed ~horizon ?topo:t.topo ~sched:t.sched t.scenario

let with_sched sched t = { t with sched }
let with_topo topo t = { t with topo = Some topo }

let of_scenario_file ?(sched = "WPS") ?seed ?horizon path =
  Option.iter (check_horizon "Spec.of_scenario_file") horizon;
  let sc = Wfs_core.Scenario.load ?seed ?horizon path in
  {
    scenario = File path;
    sched;
    seed = sc.Wfs_core.Scenario.seed;
    horizon = sc.Wfs_core.Scenario.horizon;
    topo = None;
  }

let scenario_to_string s =
  match s with
  | Example { n; sum = None } -> Printf.sprintf "example:%d" n
  | Example { n; sum = Some sum } ->
      Printf.sprintf "example:%d?sum=%s" n (Json.float_to_string sum)
  | File path -> "file:" ^ path

(* The fault plan has its own key:value micro-grammar, ;-separated because
   the surrounding topology clause already splits on commas.  All eight
   keys are required, in this one canonical order, so to_string/of_string
   stays a bijection (same discipline as the clause itself). *)
let faults_to_string p =
  Printf.sprintf "crash:%s;recover:%s;lose:%s;corrupt:%s;blackout:%sx%d;exn:%s;persist:%s;budget:%d"
    (Json.float_to_string p.crash)
    (Json.float_to_string p.recover)
    (Json.float_to_string p.lose)
    (Json.float_to_string p.corrupt)
    (Json.float_to_string p.blackout)
    p.blackout_len
    (Json.float_to_string p.exn)
    (Json.float_to_string p.persist)
    p.budget

let topo_to_string tp =
  let base =
    Printf.sprintf "cells=%d,mobility=%s,epoch=%d" tp.cells
      (Json.float_to_string tp.mobility)
      tp.epoch
  in
  match tp.faults with
  | None -> base
  | Some p -> Printf.sprintf "%s,faults=%s" base (faults_to_string p)

let to_string t =
  let base =
    Printf.sprintf "%s | %s | seed=%d | horizon=%d"
      (scenario_to_string t.scenario)
      t.sched t.seed t.horizon
  in
  match t.topo with
  | None -> base
  | Some tp -> base ^ " | " ^ topo_to_string tp

let scenario_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "scenario %S: expected example:N or file:PATH" s)
  | Some i -> begin
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "file" ->
          if String.length rest = 0 then Error "file: needs a path"
          else Ok (File rest)
      | "example" -> begin
          let num, sum_part =
            match String.index_opt rest '?' with
            | None -> (rest, None)
            | Some j ->
                ( String.sub rest 0 j,
                  Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
          in
          match int_of_string_opt num with
          | None -> Error (Printf.sprintf "example number %S is not an integer" num)
          | Some n -> begin
              let sum =
                match sum_part with
                | None -> Ok None
                | Some kv -> begin
                    match String.split_on_char '=' kv with
                    | [ "sum"; v ] -> begin
                        match float_of_string_opt v with
                        | Some f -> Ok (Some f)
                        | None ->
                            Error (Printf.sprintf "sum value %S is not a number" v)
                      end
                    | _ ->
                        Error
                          (Printf.sprintf "unknown example parameter %S (only sum=F)" kv)
                  end
              in
              match sum with
              | Error _ as e -> e
              | Ok sum -> begin
                  match example ?sum n with
                  | scenario -> Ok scenario
                  | exception Invalid_argument msg -> Error msg
                end
            end
        end
      | _ -> Error (Printf.sprintf "unknown scenario kind %S (example | file)" kind)
    end

let int_field ~key s =
  match String.split_on_char '=' s with
  | [ k; v ] when String.equal k key -> begin
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "%s value %S is not an integer" key v)
    end
  | _ -> Error (Printf.sprintf "expected %s=N, got %S" key s)

let float_field ~key s =
  match String.split_on_char ':' s with
  | [ k; v ] when String.equal k key -> begin
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s value %S is not a number" key v)
    end
  | _ -> Error (Printf.sprintf "expected %s:R, got %S" key s)

(* [crash:R;recover:R;lose:R;corrupt:R;blackout:RxN;exn:R;persist:R;budget:N]
   — every key required, in that order. *)
let faults_of_string s =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  match String.split_on_char ';' s with
  | [ crash; recover; lose; corrupt; blackout; exn_; persist; budget ] ->
      let* crash = float_field ~key:"crash" crash in
      let* recover = float_field ~key:"recover" recover in
      let* lose = float_field ~key:"lose" lose in
      let* corrupt = float_field ~key:"corrupt" corrupt in
      let* blackout, blackout_len =
        match String.split_on_char ':' blackout with
        | [ "blackout"; v ] -> begin
            match String.split_on_char 'x' v with
            | [ rate; len ] -> begin
                match (float_of_string_opt rate, int_of_string_opt len) with
                | Some rate, Some len -> Ok (rate, len)
                | _ ->
                    Error (Printf.sprintf "blackout value %S is not RxN" v)
              end
            | _ -> Error (Printf.sprintf "blackout value %S is not RxN" v)
          end
        | _ -> Error (Printf.sprintf "expected blackout:RxN, got %S" blackout)
      in
      let* exn = float_field ~key:"exn" exn_ in
      let* persist = float_field ~key:"persist" persist in
      let* budget =
        match String.split_on_char ':' budget with
        | [ "budget"; v ] -> begin
            match int_of_string_opt v with
            | Some n -> Ok n
            | None -> Error (Printf.sprintf "budget value %S is not an integer" v)
          end
        | _ -> Error (Printf.sprintf "expected budget:N, got %S" budget)
      in
      begin
        match
          faults ~crash ~recover ~lose ~corrupt ~blackout ~blackout_len ~exn
            ~persist ~budget ()
        with
        | p -> Ok p
        | exception Invalid_argument msg -> Error msg
      end
  | _ ->
      Error
        (Printf.sprintf
           "fault plan %S: expected \
            crash:R;recover:R;lose:R;corrupt:R;blackout:RxN;exn:R;persist:R;budget:N"
           s)

(* The topology clause is the optional 5th field:
   [cells=K,mobility=R,epoch=E[,faults=PLAN]] — comma-separated, the
   first three keys required, in that order (one canonical spelling keeps
   to_string/of_string a bijection). *)
let topo_of_string s =
  let of_parts cells mobility epoch faults_part =
    match int_field ~key:"cells" cells with
    | Error _ as e -> e
    | Ok cells -> begin
        match String.split_on_char '=' mobility with
        | [ "mobility"; v ] -> begin
            match float_of_string_opt v with
            | None ->
                Error (Printf.sprintf "mobility value %S is not a number" v)
            | Some mobility -> begin
                match int_field ~key:"epoch" epoch with
                | Error _ as e -> e
                | Ok epoch -> begin
                    let fl =
                      match faults_part with
                      | None -> Ok None
                      | Some fp -> begin
                          match String.index_opt fp '=' with
                          | Some i when String.equal (String.sub fp 0 i) "faults"
                            -> begin
                              match
                                faults_of_string
                                  (String.sub fp (i + 1)
                                     (String.length fp - i - 1))
                              with
                              | Ok p -> Ok (Some p)
                              | Error _ as e -> e
                            end
                          | _ ->
                              Error
                                (Printf.sprintf "expected faults=PLAN, got %S"
                                   fp)
                        end
                    in
                    match fl with
                    | Error msg -> Error msg
                    | Ok fl -> begin
                        match topo ~cells ~mobility ~epoch with
                        | tp -> Ok { tp with faults = fl }
                        | exception Invalid_argument msg -> Error msg
                      end
                  end
              end
          end
        | _ -> Error (Printf.sprintf "expected mobility=R, got %S" mobility)
      end
  in
  match String.split_on_char ',' s with
  | [ cells; mobility; epoch ] -> of_parts cells mobility epoch None
  | [ cells; mobility; epoch; faults ] ->
      of_parts cells mobility epoch (Some faults)
  | _ ->
      Error
        (Printf.sprintf
           "topology %S: expected cells=K,mobility=R,epoch=E[,faults=PLAN]" s)

let of_string s =
  let fields = List.map String.trim (String.split_on_char '|' s) in
  let of_base scenario sched seed horizon topo =
    match scenario_of_string scenario with
    | Error _ as e -> e
    | Ok scenario -> begin
        if String.length sched = 0 then Error "empty scheduler name"
        else
          match int_field ~key:"seed" seed with
          | Error _ as e -> e
          | Ok seed -> begin
              match int_field ~key:"horizon" horizon with
              | Error _ as e -> e
              | Ok horizon ->
                  if horizon <= 0 then
                    Error (Printf.sprintf "non-positive horizon %d" horizon)
                  else Ok { scenario; sched; seed; horizon; topo }
            end
      end
  in
  match fields with
  | [ scenario; sched; seed; horizon ] -> of_base scenario sched seed horizon None
  | [ scenario; sched; seed; horizon; topo ] -> begin
      match topo_of_string topo with
      | Error _ as e -> e
      | Ok tp -> of_base scenario sched seed horizon (Some tp)
    end
  | _ ->
      Error
        (Printf.sprintf
           "spec %S: expected 4 |-separated fields (scenario | sched | seed=N \
            | horizon=N), optionally followed by | \
            cells=K,mobility=R,epoch=E[,faults=PLAN]"
           s)

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error msg -> Wfs_util.Error.invalid "Spec.of_string" msg

let parse s =
  match of_string s with
  | Ok _ as ok -> ok
  | Error msg ->
      Error
        (Wfs_util.Error.v Wfs_util.Error.Bad_spec ~who:"Spec.parse" msg
           ~context:[ ("spec", s) ])

let scenario_equal a b =
  match (a, b) with
  | Example a, Example b ->
      Int.equal a.n b.n && Option.equal Float.equal a.sum b.sum
  | File a, File b -> String.equal a b
  | Example _, File _ | File _, Example _ -> false

let faults_equal a b =
  Float.equal a.crash b.crash
  && Float.equal a.recover b.recover
  && Float.equal a.lose b.lose
  && Float.equal a.corrupt b.corrupt
  && Float.equal a.blackout b.blackout
  && Int.equal a.blackout_len b.blackout_len
  && Float.equal a.exn b.exn
  && Float.equal a.persist b.persist
  && Int.equal a.budget b.budget

let topo_equal a b =
  Int.equal a.cells b.cells
  && Float.equal a.mobility b.mobility
  && Int.equal a.epoch b.epoch
  && Option.equal faults_equal a.faults b.faults

let equal a b =
  scenario_equal a.scenario b.scenario
  && String.equal a.sched b.sched
  && Int.equal a.seed b.seed
  && Int.equal a.horizon b.horizon
  && Option.equal topo_equal a.topo b.topo
