type direction = Up | Down

type t = {
  setups : Simulator.flow_setup array;
  addrs : (int * direction) array;
  horizon : int;
  seed : int;
}

let fail ~line fmt =
  Printf.ksprintf
    (Wfs_util.Error.bad_spec ~who:"Scenario.parse"
       ~context:[ ("line", string_of_int line) ])
    fmt

(* Constructors check their own ranges (weight 0, a probability of 2) with
   [Invalid_argument]; on a flow line that is a malformed file, so it
   becomes the same typed error, carrying the line. *)
let on_line ~line f =
  try f () with Invalid_argument message -> fail ~line "%s" message

let float_of ~line what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail ~line "%s: expected a number, got %S" what s

let int_of ~line what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail ~line "%s: expected an integer, got %S" what s

(* "kind:arg1,arg2" -> (kind, [args]) *)
let split_spec s =
  match String.index_opt s ':' with
  | None -> (s, [])
  | Some i ->
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      (kind, String.split_on_char ',' rest)

let parse_drop ~line s =
  match split_spec s with
  | "none", [] -> Params.No_drop
  | "retx", [ k ] -> Params.Retx_limit (int_of ~line "retx limit" k)
  | "delay", [ d ] -> Params.Delay_bound (int_of ~line "delay bound" d)
  | "retx-delay", [ k; d ] ->
      Params.Retx_or_delay (int_of ~line "retx limit" k, int_of ~line "delay bound" d)
  | _ -> fail ~line "unknown drop policy %S" s

let parse_source ~line ~rng s =
  match split_spec s with
  | "cbr", [ ia ] ->
      Wfs_traffic.Cbr.create ~interarrival:(float_of ~line "cbr interarrival" ia) ()
  | "poisson", [ r ] ->
      Wfs_traffic.Poisson.create ~rng:(rng ()) ~rate:(float_of ~line "poisson rate" r)
  | "mmpp", [ r ] ->
      Wfs_traffic.Mmpp.paper_source ~rng:(rng ())
        ~mean_rate:(float_of ~line "mmpp mean rate" r)
        ()
  | "onoff", [ p1; p2 ] ->
      Wfs_traffic.Onoff.create ~rng:(rng ())
        ~p_on_to_off:(float_of ~line "onoff p_on_to_off" p1)
        ~p_off_to_on:(float_of ~line "onoff p_off_to_on" p2)
        ()
  | "pareto", [ on; off ] ->
      Wfs_traffic.Pareto_onoff.create ~rng:(rng ())
        ~mean_on:(float_of ~line "pareto mean_on" on)
        ~mean_off:(float_of ~line "pareto mean_off" off)
        ()
  | _ -> fail ~line "unknown source %S" s

let parse_channel ~line ~rng s =
  match split_spec s with
  | "good", [] -> Wfs_channel.Error_free.create ()
  | "ge", [ pg; pe ] ->
      Wfs_channel.Gilbert_elliott.create ~rng:(rng ())
        ~pg:(float_of ~line "ge pg" pg) ~pe:(float_of ~line "ge pe" pe) ()
  | "bernoulli", [ p ] ->
      Wfs_channel.Bernoulli_ch.create ~rng:(rng ())
        ~good_prob:(float_of ~line "bernoulli good prob" p)
  | "badburst", [ start; len ] ->
      Wfs_channel.Periodic_ch.bad_burst
        ~start:(int_of ~line "badburst start" start)
        ~length:(int_of ~line "badburst length" len)
  | _ -> fail ~line "unknown channel %S" s

type flow_line = {
  weight : float;
  drop : Params.drop_policy;
  buffer : int option;
  host : int option;
  direction : direction;
  source_spec : string;
  channel_spec : string;
  line : int;
}

let parse_flow_line ~line tokens =
  let weight = ref 1. in
  let drop = ref Params.No_drop in
  let buffer = ref None in
  let host = ref None in
  let direction = ref Down in
  let source_spec = ref None in
  let channel_spec = ref None in
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> fail ~line "flow attribute %S is not key=value" tok
      | Some i ->
          let key = String.sub tok 0 i in
          let value = String.sub tok (i + 1) (String.length tok - i - 1) in
          (match key with
          | "weight" -> weight := float_of ~line "weight" value
          | "drop" -> drop := parse_drop ~line value
          | "buffer" -> buffer := Some (int_of ~line "buffer" value)
          | "host" -> host := Some (int_of ~line "host" value)
          | "dir" ->
              direction :=
                (match value with
                | "up" -> Up
                | "down" -> Down
                | _ -> fail ~line "dir must be up or down, got %S" value)
          | "source" -> source_spec := Some value
          | "channel" -> channel_spec := Some value
          | _ -> fail ~line "unknown flow attribute %S" key))
    tokens;
  let source_spec =
    match !source_spec with Some s -> s | None -> fail ~line "flow needs source="
  in
  let channel_spec =
    match !channel_spec with
    | Some s -> s
    | None -> fail ~line "flow needs channel="
  in
  {
    weight = !weight;
    drop = !drop;
    buffer = !buffer;
    host = !host;
    direction = !direction;
    source_spec;
    channel_spec;
    line;
  }

let tokens_of line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> String.length s > 0)

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse ?seed:seed_override ?horizon:horizon_override text =
  let horizon = ref 100_000 in
  let seed = ref 42 in
  let flow_lines = ref [] in
  let seen_flow = ref false in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      match tokens_of (strip_comment raw) with
      | [] -> ()
      | "horizon" :: [ n ] ->
          horizon := int_of ~line "horizon" n;
          if !horizon < 0 then fail ~line "horizon must be >= 0, got %d" !horizon
      | "seed" :: [ n ] ->
          if !seen_flow then
            fail ~line "seed must be set before the first flow";
          seed := int_of ~line "seed" n
      | "predictor" :: _ ->
          fail ~line
            "the predictor directive is gone: a scheduler name's -I/-P \
             suffix sets its channel knowledge"
      | "flow" :: attrs ->
          seen_flow := true;
          flow_lines := parse_flow_line ~line attrs :: !flow_lines
      | directive :: _ -> fail ~line "unknown directive %S" directive)
    (String.split_on_char '\n' text);
  let flow_lines = List.rev !flow_lines in
  if List.is_empty flow_lines then fail ~line:0 "scenario has no flows";
  (* CLI/run-spec overrides win over the file's directives: a spec names a
     (scenario, seed, horizon) triple, the file only provides defaults. *)
  Option.iter (fun s -> seed := s) seed_override;
  Option.iter (fun h -> horizon := h) horizon_override;
  let master = Wfs_util.Rng.create !seed in
  let rng () = Wfs_util.Rng.split master in
  let setups =
    Array.of_list
      (List.mapi
         (fun id fl ->
           let line = fl.line in
           on_line ~line (fun () ->
               let flow =
                 Params.flow ~id ~weight:fl.weight ~drop:fl.drop
                   ?buffer:fl.buffer ()
               in
               let source = parse_source ~line ~rng fl.source_spec in
               let channel = parse_channel ~line ~rng fl.channel_spec in
               { Simulator.flow; source; channel }))
         flow_lines)
  in
  let addrs =
    Array.of_list
      (List.mapi
         (fun id fl ->
           (Option.value ~default:(id + 1) fl.host, fl.direction))
         flow_lines)
  in
  { setups; addrs; horizon = !horizon; seed = !seed }

let load ?seed ?horizon path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse ?seed ?horizon text
