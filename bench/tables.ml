(* Regeneration of every evaluation table in the paper (Tables 1-11).
   Parameter tables 5, 7 and 10 are inputs and are printed alongside their
   result tables.  Measured tables print next to the published reference so
   the shape (orderings, ratios, crossovers) can be compared directly.

   Each section declares its simulations as keyed {!Runs.job}s up front;
   {!all} executes the distinct jobs on the domain pool, then renders every
   section sequentially from the merged results.  Sections that need the
   same run (same spec key) share it — e.g. the burstiness series reuses
   Table 1/2/3 cells.  With [seeds > 1] the spec-backed sections replicate
   each run over consecutive seeds and report mean ± 95% CI cells. *)

module Core = Wfs_core
module P = Core.Presets
module T = Wfs_util.Tablefmt
module M = Core.Metrics
module Spec = Wfs_runner.Spec
module Summary = Wfs_util.Stats.Summary

type opts = { horizon : int; seed : int; seeds : int; jobs : int }

type section = {
  name : string;
  jobs : Runs.job list;
  render : (string -> Runs.result) -> T.t list;
}

let cell = T.cell_of_float

(* "200000 slots" or "200000 slots, 5 seeds" for table titles. *)
let run_info ?horizon ~opts () =
  let h = Option.value ~default:opts.horizon horizon in
  if opts.seeds > 1 then Printf.sprintf "%d slots, %d seeds" h opts.seeds
  else Printf.sprintf "%d slots" h

(* --- spec-backed runs, replicated over consecutive seeds --- *)

let spec ~opts ?sum ?seed n sched =
  Spec.make
    ~seed:(Option.value ~default:opts.seed seed)
    ~horizon:opts.horizon ~sched
    (Spec.example ?sum n)

let spec_jobs ~opts sp = List.map Runs.spec_job (Spec.replicas opts.seeds sp)

let spec_metrics ~opts get sp =
  List.map
    (fun s -> Runs.metrics get (Spec.to_string s))
    (Spec.replicas opts.seeds sp)

(* --- custom runs (knobs a spec can't express), same replication --- *)

let custom_key key seed = Printf.sprintf "%s #seed=%d" key seed

let custom_jobs ~opts ?horizon ~key (f : seed:int -> Core.Metrics.t) =
  let slots = Option.value ~default:opts.horizon horizon in
  List.init opts.seeds (fun k ->
      let seed = opts.seed + k in
      {
        Runs.key = custom_key key seed;
        slots;
        run = (fun () -> Runs.Metrics (f ~seed));
      })

let custom_metrics ~opts get key =
  List.init opts.seeds (fun k ->
      Runs.metrics get (custom_key key (opts.seed + k)))

(* One rendered cell from a replicated run: the plain value for a single
   seed, "mean±ci" across several. *)
let agg = T.cell_of_replicas

let run_direct ?hook ~horizon ~predictor setups sched =
  let cfg =
    Core.Sim_config.v ~horizon setups |> Core.Sim_config.with_predictor predictor
  in
  Runs.checked_hooks sched @ Option.to_list hook
  |> List.fold_left (fun c h -> Core.Sim_config.with_hook h c) cfg
  |> Core.Sim_config.run sched

(* The 9-algorithm, 2-flow grid of Tables 1-4 (plus IWFQ rows, which the
   paper defines but does not simulate). *)
let example1_grid ~opts ~name ~title ~example ~sum ~ref_table =
  let algorithms =
    List.map (fun e -> e.Core.Registry.name) (Core.Registry.table1_extended ())
  in
  let spec_of alg = spec ~opts ~sum example alg in
  let jobs = List.concat_map (fun alg -> spec_jobs ~opts (spec_of alg)) algorithms in
  let render get =
    let t =
      T.create ~title
        ~columns:[ "alg"; "d1"; "l1"; "dmax1"; "sd1"; "d2"; "l2"; "dmax2"; "sd2" ]
    in
    List.iter
      (fun alg ->
        let ms = spec_metrics ~opts get (spec_of alg) in
        T.add_row t
          [
            alg;
            agg ms (fun m -> M.mean_delay m ~flow:0);
            agg ~decimals:3 ms (fun m -> M.loss m ~flow:0);
            agg ms (fun m -> M.max_delay m ~flow:0);
            agg ms (fun m -> M.stddev_delay m ~flow:0);
            agg ms (fun m -> M.mean_delay m ~flow:1);
            agg ~decimals:3 ms (fun m -> M.loss m ~flow:1);
            agg ms (fun m -> M.max_delay m ~flow:1);
            agg ms (fun m -> M.stddev_delay m ~flow:1);
          ])
      algorithms;
    T.print t;
    print_newline ();
    Paper_ref.print ref_table;
    [ t ]
  in
  { name; jobs; render }

let table1 ~opts =
  example1_grid ~opts ~name:"Table 1"
    ~title:
      (Printf.sprintf "Table 1 (measured): Example 1, pg+pe = 0.1, %s"
         (run_info ~opts ()))
    ~example:1 ~sum:0.1 ~ref_table:Paper_ref.table1

let table2 ~opts =
  example1_grid ~opts ~name:"Table 2"
    ~title:
      (Printf.sprintf "Table 2 (measured): Example 1, pg+pe = 0.5, %s"
         (run_info ~opts ()))
    ~example:1 ~sum:0.5 ~ref_table:Paper_ref.table2

let table3 ~opts =
  example1_grid ~opts ~name:"Table 3"
    ~title:
      (Printf.sprintf
         "Table 3 (measured): Example 1, pg+pe = 1.0 (memoryless), %s"
         (run_info ~opts ()))
    ~example:1 ~sum:1.0 ~ref_table:Paper_ref.table3

let table4 ~opts =
  example1_grid ~opts ~name:"Table 4"
    ~title:
      (Printf.sprintf
         "Table 4 (measured): Example 2 (delay bound 100), pg+pe = 0.1, %s"
         (run_info ~opts ()))
    ~example:2 ~sum:0.1 ~ref_table:Paper_ref.table4

let params_table ~title rows =
  let t = T.create ~title ~columns:[ "source"; "rate"; "pg"; "pe" ] in
  List.iter (T.add_row t) rows;
  t

let table6 ~opts =
  let algorithms = [ "Blind WRR"; "WRR-P"; "SwapA-P" ] in
  let spec_of alg = spec ~opts 3 alg in
  let jobs = List.concat_map (fun alg -> spec_jobs ~opts (spec_of alg)) algorithms in
  let render get =
    let inputs =
      params_table ~title:"Table 5 (inputs): Example 3 source/channel parameters"
        [
          [ "1 (MMPP)"; "0.2"; "0.07"; "0.03" ];
          [ "2 (Poisson)"; "0.25"; "0.095"; "0.005" ];
          [ "3 (CBR)"; "0.25"; "0.09"; "0.01" ];
        ]
    in
    T.print inputs;
    print_newline ();
    let t =
      T.create
        ~title:
          (Printf.sprintf "Table 6 (measured): Example 3, %s" (run_info ~opts ()))
        ~columns:[ "alg"; "d1"; "l1"; "d2"; "l2"; "d3"; "l3" ]
    in
    List.iter
      (fun alg ->
        let ms = spec_metrics ~opts get (spec_of alg) in
        T.add_row t
          ([ alg ]
          @ List.concat_map
              (fun flow ->
                [
                  agg ms (fun m -> M.mean_delay m ~flow);
                  agg ~decimals:3 ms (fun m -> M.loss m ~flow);
                ])
              [ 0; 1; 2 ]))
      algorithms;
    T.print t;
    print_newline ();
    Paper_ref.print Paper_ref.table6;
    [ inputs; t ]
  in
  { name = "Tables 5+6"; jobs; render }

let table8 ~opts =
  let algorithms =
    List.map (fun e -> e.Core.Registry.name) (Core.Registry.table1 ())
  in
  let spec_of alg = spec ~opts 4 alg in
  let jobs = List.concat_map (fun alg -> spec_jobs ~opts (spec_of alg)) algorithms in
  let render get =
    let inputs =
      params_table ~title:"Table 7 (inputs): Example 4 source/channel parameters"
        [
          [ "1 (MMPP)"; "0.08"; "0.09"; "0.01" ];
          [ "2 (Poisson)"; "8.0"; "0.095"; "0.005" ];
          [ "3 (MMPP)"; "0.08"; "0.08"; "0.02" ];
          [ "4 (Poisson)"; "8.0"; "0.07"; "0.03" ];
          [ "5 (MMPP)"; "0.08"; "0.035"; "0.015" ];
        ]
    in
    T.print inputs;
    print_newline ();
    let t =
      T.create
        ~title:
          (Printf.sprintf "Table 8 (measured): Example 4, %s" (run_info ~opts ()))
        ~columns:[ "alg"; "d1"; "l1"; "l2"; "d3"; "l3"; "l4"; "d5"; "l5" ]
    in
    List.iter
      (fun alg ->
        let ms = spec_metrics ~opts get (spec_of alg) in
        (* Paper source numbering: sources 1..5 = flows 0..4.  The saturated
           sources 2 and 4 report the per-attempt drop share (their arrivals
           exceed capacity, so per-arrival loss is meaningless — the paper's
           own framing). *)
        T.add_row t
          [
            alg;
            agg ms (fun m -> M.mean_delay m ~flow:0);
            agg ~decimals:3 ms (fun m -> M.loss m ~flow:0);
            agg ~decimals:3 ms (fun m -> M.drop_share m ~flow:1);
            agg ms (fun m -> M.mean_delay m ~flow:2);
            agg ~decimals:3 ms (fun m -> M.loss m ~flow:2);
            agg ~decimals:3 ms (fun m -> M.drop_share m ~flow:3);
            agg ms (fun m -> M.mean_delay m ~flow:4);
            agg ~decimals:3 ms (fun m -> M.loss m ~flow:4);
          ])
      algorithms;
    T.print t;
    print_newline ();
    Paper_ref.print Paper_ref.table8;
    [ inputs; t ]
  in
  { name = "Tables 7+8"; jobs; render }

let table9 ~opts =
  let algorithms = [ "WRR-P"; "SwapA-P" ] in
  let spec_of alg = spec ~opts 5 alg in
  let jobs = List.concat_map (fun alg -> spec_jobs ~opts (spec_of alg)) algorithms in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf "Table 9 (measured): Example 5, %s" (run_info ~opts ()))
        ~columns:
          [ "alg"; "d1"; "l1"; "d2"; "l2"; "d3"; "l3"; "d4"; "l4"; "d5"; "l5" ]
    in
    List.iter
      (fun alg ->
        let ms = spec_metrics ~opts get (spec_of alg) in
        T.add_row t
          ([ alg ]
          @ List.concat_map
              (fun flow ->
                [
                  agg ms (fun m -> M.mean_delay m ~flow);
                  agg ~decimals:3 ms (fun m -> M.loss m ~flow);
                ])
              [ 0; 1; 2; 3; 4 ]))
      algorithms;
    T.print t;
    print_newline ();
    Paper_ref.print Paper_ref.table9;
    [ t ]
  in
  { name = "Table 9"; jobs; render }

let table11 ~opts =
  let wrr_spec = spec ~opts 6 "WRR-P" in
  let sweep = [ (4, 4); (2, 4); (0, 4); (0, 1) ] in
  let swapa_spec = spec ~opts 6 "SwapA-P" in
  let sweep_key (d, c) = Printf.sprintf "t11/SwapA-P d=%d c=%d" d c in
  let jobs =
    spec_jobs ~opts wrr_spec
    @ List.concat_map
        (fun (d, c) ->
          custom_jobs ~opts ~key:(sweep_key (d, c)) (fun ~seed ->
              Wfs_runner.Exec.run
                ~limits:(P.example6_limits ~d ~c)
                ~hooks:(fun _ -> Runs.checked_hooks)
                (Spec.with_seed seed swapa_spec)))
        sweep
  in
  let render get =
    let inputs =
      params_table
        ~title:"Table 10 (inputs): Example 6 parameters (substituted; see DESIGN.md)"
        [
          [ "1-4 (Poisson)"; "0.22"; "0.095"; "0.005" ];
          [ "5 (Poisson)"; "0.07"; "0.03"; "0.07" ];
        ]
    in
    T.print inputs;
    print_newline ();
    let t =
      T.create
        ~title:
          (Printf.sprintf "Table 11 (measured): Example 6 credit/debit sweep, %s"
             (run_info ~opts ()))
        ~columns:[ "alg"; "D"; "C"; "d1"; "l1"; "sd1"; "d5"; "l5"; "sd5" ]
    in
    let add_row name d c ms =
      T.add_row t
        [
          name;
          d;
          c;
          agg ms (fun m -> M.mean_delay m ~flow:0);
          agg ~decimals:3 ms (fun m -> M.loss m ~flow:0);
          agg ms (fun m -> M.stddev_delay m ~flow:0);
          agg ms (fun m -> M.mean_delay m ~flow:4);
          agg ~decimals:3 ms (fun m -> M.loss m ~flow:4);
          agg ms (fun m -> M.stddev_delay m ~flow:4);
        ]
    in
    add_row "WRR-P" "-" "-" (spec_metrics ~opts get wrr_spec);
    List.iter
      (fun (d, c) ->
        add_row "SwapA-P" (string_of_int d) (string_of_int c)
          (custom_metrics ~opts get (sweep_key (d, c))))
      sweep;
    T.print t;
    print_newline ();
    Paper_ref.print Paper_ref.table11;
    [ inputs; t ]
  in
  { name = "Tables 10+11"; jobs; render }

(* --- Ablations beyond the paper's tables --- *)

let ablation_amortized_credit ~opts =
  (* Section 7's amortised-compensation extension: capping per-frame credit
     redemption smooths the clean flow's delay at small cost to the
     recovering flow. *)
  let caps = [ None; Some 2; Some 1 ] in
  let cap_label = function None -> "none" | Some k -> string_of_int k in
  let key cap = Printf.sprintf "ablate/credit-cap=%s" (cap_label cap) in
  let jobs =
    List.concat_map
      (fun cap ->
        custom_jobs ~opts ~key:(key cap) (fun ~seed ->
            let setups = P.example1 ~sum:0.1 ~seed () in
            run_direct ~horizon:opts.horizon
              ~predictor:Wfs_channel.Predictor.One_step setups
              (Core.Wps.instance
                 (Core.Wps.create
                    ~params:(Core.Params.swapa ?credit_per_frame:cap ())
                    (P.flows_of setups)))))
      caps
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Ablation: per-frame credit redemption cap (Example 1, pg+pe=0.1, %s)"
             (run_info ~opts ()))
        ~columns:[ "redeem cap"; "d1"; "dmax1"; "d2"; "dmax2"; "sd2" ]
    in
    List.iter
      (fun cap ->
        let ms = custom_metrics ~opts get (key cap) in
        T.add_row t
          [
            cap_label cap;
            agg ms (fun m -> M.mean_delay m ~flow:0);
            agg ms (fun m -> M.max_delay m ~flow:0);
            agg ms (fun m -> M.mean_delay m ~flow:1);
            agg ms (fun m -> M.max_delay m ~flow:1);
            agg ms (fun m -> M.stddev_delay m ~flow:1);
          ])
      caps;
    T.print t;
    [ t ]
  in
  { name = "Ablation: amortised credits"; jobs; render }

let ablation_iwfq_vs_wps ~opts =
  (* IWFQ vs full WPS across burstiness regimes: average-case closeness
     (the paper's closing observation). *)
  let sums = [ 0.1; 0.25; 0.5; 0.75; 1.0 ] in
  let spec_of sum alg = spec ~opts ~sum 1 alg in
  let jobs =
    List.concat_map
      (fun sum ->
        List.concat_map
          (fun alg -> spec_jobs ~opts (spec_of sum alg))
          [ "IWFQ-P"; "SwapA-P" ])
      sums
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf "Ablation: IWFQ vs WPS across burstiness (%s)"
             (run_info ~opts ()))
        ~columns:[ "pg+pe"; "IWFQ d1"; "SwapA d1"; "IWFQ d2"; "SwapA d2" ]
    in
    List.iter
      (fun sum ->
        let iwfq = spec_metrics ~opts get (spec_of sum "IWFQ-P") in
        let swapa = spec_metrics ~opts get (spec_of sum "SwapA-P") in
        T.add_row t
          [
            cell sum;
            agg iwfq (fun m -> M.mean_delay m ~flow:0);
            agg swapa (fun m -> M.mean_delay m ~flow:0);
            agg iwfq (fun m -> M.mean_delay m ~flow:1);
            agg swapa (fun m -> M.mean_delay m ~flow:1);
          ])
      sums;
    T.print t;
    [ t ]
  in
  { name = "Ablation: IWFQ vs WPS"; jobs; render }

let ablation_snoop_period ~opts =
  (* Section 6.1's proposed extension: periodic snooping trades prediction
     accuracy (delay/loss) for monitoring duty cycle.  Period 1 is exactly
     one-step prediction, so that row shares Table 1's SwapA-P run. *)
  let periods = [ 1; 2; 4; 8; 16 ] in
  let base_spec = spec ~opts ~sum:0.1 1 "SwapA-P" in
  let key period = Printf.sprintf "ablate/snoop=%d" period in
  let jobs =
    List.concat_map
      (fun period ->
        if period = 1 then spec_jobs ~opts base_spec
        else
          custom_jobs ~opts ~key:(key period) (fun ~seed ->
              let setups = P.example1 ~sum:0.1 ~seed () in
              run_direct ~horizon:opts.horizon
                ~predictor:(Wfs_channel.Predictor.Periodic_snoop period)
                setups
                (P.scheduler P.Swapa (P.flows_of setups))))
      periods
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Ablation: periodic-snoop prediction (Example 1, pg+pe=0.1, %s)"
             (run_info ~opts ()))
        ~columns:[ "snoop period"; "d1"; "l1"; "duty cycle" ]
    in
    List.iter
      (fun period ->
        let ms =
          if period = 1 then spec_metrics ~opts get base_spec
          else custom_metrics ~opts get (key period)
        in
        T.add_row t
          [
            string_of_int period;
            agg ms (fun m -> M.mean_delay m ~flow:0);
            agg ~decimals:3 ms (fun m -> M.loss m ~flow:0);
            Printf.sprintf "1/%d" period;
          ])
      periods;
    T.print t;
    [ t ]
  in
  { name = "Ablation: snoop period"; jobs; render }

let series_burstiness ~opts =
  (* A figure the paper implies but never plots: the errored flow's mean
     delay as a function of channel burstiness (pg+pe), per scheduler, with
     PG fixed at 0.7.  Regenerates as a CSV-like series for plotting.
     Points shared with Tables 1-3 reuse those runs. *)
  let sums = [ 0.05; 0.1; 0.2; 0.35; 0.5; 0.75; 1.0 ] in
  let algs = [ "WRR-P"; "NoSwap-P"; "SwapA-P"; "IWFQ-P"; "Blind WRR" ] in
  let spec_of sum alg = spec ~opts ~sum 1 alg in
  let jobs =
    List.concat_map
      (fun sum -> List.concat_map (fun alg -> spec_jobs ~opts (spec_of sum alg)) algs)
      sums
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Series: Example-1 flow-1 mean delay vs burstiness (PG=0.7, %s)"
             (run_info ~opts ()))
        ~columns:[ "pg+pe"; "WRR-P"; "NoSwap-P"; "SwapA-P"; "IWFQ-P"; "Blind loss" ]
    in
    List.iter
      (fun sum ->
        let d alg = agg (spec_metrics ~opts get (spec_of sum alg))
            (fun m -> M.mean_delay m ~flow:0)
        in
        let blind_loss =
          agg ~decimals:3
            (spec_metrics ~opts get (spec_of sum "Blind WRR"))
            (fun m -> M.loss m ~flow:0)
        in
        T.add_row t
          [ cell sum; d "WRR-P"; d "NoSwap-P"; d "SwapA-P"; d "IWFQ-P"; blind_loss ])
      sums;
    T.print t;
    [ t ]
  in
  { name = "Series: burstiness sweep"; jobs; render }

let mac_overhead ~opts =
  (* MAC integration: scheduling through the Section-6 MAC (uplink
     invisibility + control slots) vs the oracle scheduler evaluation. *)
  let key = "mac/overhead" in
  let job =
    {
      Runs.key;
      slots = opts.horizon;
      run =
        (fun () ->
          let rng = Wfs_util.Rng.create opts.seed in
          let ge seed pg pe =
            Wfs_channel.Gilbert_elliott.create ~rng:(Wfs_util.Rng.create seed)
              ~pg ~pe ()
          in
          let up host =
            { Wfs_mac.Frame.host; direction = Wfs_mac.Frame.Uplink; index = 0 }
          in
          (* Data flows get weight 8 so the unit-weight control flow costs
             ~6% of capacity instead of a third. *)
          let flows =
            [|
              {
                Wfs_mac.Mac_sim.addr = up 1;
                weight = 8.;
                source =
                  Wfs_traffic.Mmpp.paper_source
                    ~rng:(Wfs_util.Rng.create 11)
                    ~mean_rate:0.2 ();
                channel = ge 12 0.07 0.03;
                drop = Core.Params.Retx_limit 2;
              };
              {
                Wfs_mac.Mac_sim.addr = up 2;
                weight = 8.;
                source = Wfs_traffic.Cbr.create ~interarrival:2. ();
                channel = ge 13 0.095 0.005;
                drop = Core.Params.Retx_limit 2;
              };
            |]
          in
          let cfg = Wfs_mac.Mac_sim.config ~rng ~horizon:opts.horizon flows in
          Runs.Mac (Wfs_mac.Mac_sim.run cfg));
    }
  in
  let render get =
    let r = Runs.mac get key in
    let m = r.Wfs_mac.Mac_sim.metrics in
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "MAC integration: Example-1-like cell via Section-6 MAC (%d slots)"
             opts.horizon)
        ~columns:[ "metric"; "value" ]
    in
    T.add_row t [ "uplink 1 mean delay"; cell (M.mean_delay m ~flow:0) ];
    T.add_row t [ "uplink 1 loss"; cell ~decimals:4 (M.loss m ~flow:0) ];
    T.add_row t [ "uplink 2 mean delay"; cell (M.mean_delay m ~flow:1) ];
    T.add_row t [ "control slots"; string_of_int r.Wfs_mac.Mac_sim.control_slots ];
    T.add_row t [ "data slots"; string_of_int r.Wfs_mac.Mac_sim.data_slots ];
    T.add_row t [ "idle slots"; string_of_int r.Wfs_mac.Mac_sim.idle_slots ];
    T.add_row t
      [ "notification wins"; string_of_int r.Wfs_mac.Mac_sim.notifications_won ];
    T.add_row t
      [
        "notification collisions";
        string_of_int r.Wfs_mac.Mac_sim.notification_collisions;
      ];
    T.add_row t
      [ "piggyback reveals"; string_of_int r.Wfs_mac.Mac_sim.piggyback_reveals ];
    T.add_row t [ "mean reveal delay"; cell r.Wfs_mac.Mac_sim.mean_reveal_delay ];
    T.print t;
    [ t ]
  in
  { name = "MAC integration"; jobs = [ job ]; render }

let ablation_swap_window ~opts =
  (* How much of full-WPS performance does the MAC's three-slot
     advertisement pipeline retain?  Sweep the intra-frame swap reach on
     Example 4 (5 flows, so frames are long enough for the window to
     bind). *)
  let windows = [ Some 1; Some 3; Some 5; None ] in
  let window_label = function None -> "whole frame" | Some w -> string_of_int w in
  let key w = Printf.sprintf "ablate/swap-window=%s" (window_label w) in
  let jobs =
    List.concat_map
      (fun window ->
        custom_jobs ~opts ~key:(key window) (fun ~seed ->
            let setups = P.example4 ~seed () in
            run_direct ~horizon:opts.horizon
              ~predictor:Wfs_channel.Predictor.One_step setups
              (Core.Wps.instance
                 (Core.Wps.create
                    ~params:(Core.Params.swapa ?swap_window:window ())
                    (P.flows_of setups)))))
      windows
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Ablation: intra-frame swap window (Example 4, SwapA-P, %s)"
             (run_info ~opts ()))
        ~columns:[ "window"; "d1"; "d3"; "d5"; "idle slots" ]
    in
    List.iter
      (fun window ->
        let ms = custom_metrics ~opts get (key window) in
        T.add_row t
          [
            window_label window;
            agg ms (fun m -> M.mean_delay m ~flow:0);
            agg ms (fun m -> M.mean_delay m ~flow:2);
            agg ms (fun m -> M.mean_delay m ~flow:4);
            agg ~decimals:0 ms (fun m -> float_of_int (M.idle_slots m));
          ])
      windows;
    T.print t;
    [ t ]
  in
  { name = "Ablation: swap window"; jobs; render }

let ablation_successors ~opts =
  (* The research line the paper started: WPS vs IWFQ vs CIF-Q (its 1998
     successor with graceful degradation) vs the CSDPS prior art, on the
     Example 1 workload.  All but the off-default CIF-Q alpha resolve to
     registry specs (CIF-Q-P's default alpha is 0.9), sharing Table 1's
     runs. *)
  let rows =
    [
      ("CSDPS (prior art)", `Spec "CSDPS");
      ("WPS (this paper)", `Spec "SwapA-P");
      ("IWFQ (this paper)", `Spec "IWFQ-P");
      ("CIF-Q a=0.9 (successor)", `Spec "CIF-Q-P");
      ("CIF-Q a=0.5", `Alpha 0.5);
    ]
  in
  let spec_of name = spec ~opts ~sum:0.1 1 name in
  let alpha_key a = Printf.sprintf "ablate/cifq-alpha=%g" a in
  let jobs =
    List.concat_map
      (fun (_, how) ->
        match how with
        | `Spec name -> spec_jobs ~opts (spec_of name)
        | `Alpha a ->
            custom_jobs ~opts ~key:(alpha_key a) (fun ~seed ->
                let setups = P.example1 ~sum:0.1 ~seed () in
                run_direct ~horizon:opts.horizon
                  ~predictor:Wfs_channel.Predictor.One_step setups
                  (Core.Cifq.instance
                     (Core.Cifq.create ~alpha:a (P.flows_of setups)))))
      rows
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf "Extension: lineage comparison on Example 1, pg+pe=0.1 (%s)"
             (run_info ~opts ()))
        ~columns:[ "scheduler"; "d1"; "dmax1"; "d2"; "dmax2"; "thpt1" ]
    in
    List.iter
      (fun (label, how) ->
        let ms =
          match how with
          | `Spec name -> spec_metrics ~opts get (spec_of name)
          | `Alpha a -> custom_metrics ~opts get (alpha_key a)
        in
        T.add_row t
          [
            label;
            agg ms (fun m -> M.mean_delay m ~flow:0);
            agg ms (fun m -> M.max_delay m ~flow:0);
            agg ms (fun m -> M.mean_delay m ~flow:1);
            agg ms (fun m -> M.max_delay m ~flow:1);
            agg ~decimals:4 ms (fun m -> M.throughput m ~flow:0 ~slots:opts.horizon);
          ])
      rows;
    T.print t;
    [ t ]
  in
  { name = "Extension: lineage comparison"; jobs; render }

let ablation_fairness ~opts =
  (* The paper's fairness criterion (equation 1) measured empirically:
     windowed normalised-service Jain index and worst gap per scheduler on
     two saturated flows whose channels differ (flow 0 clean, flow 1 bad
     half the time, bursty). *)
  let horizon = min opts.horizon 100_000 in
  let schedulers =
    [
      ("WRR", fun flows -> Core.Wps.instance (Core.Wps.create ~params:Core.Params.wrr flows));
      ( "NoSwap",
        fun flows -> Core.Wps.instance (Core.Wps.create ~params:(Core.Params.noswap ()) flows) );
      ( "SwapA (WPS)",
        fun flows -> Core.Wps.instance (Core.Wps.create ~params:(Core.Params.swapa ()) flows) );
      ( "SwapA C=D=16",
        fun flows ->
          Core.Wps.instance
            (Core.Wps.create
               ~params:(Core.Params.swapa ~credit_limit:16 ~debit_limit:16 ())
               flows) );
      ("IWFQ", fun flows -> Core.Iwfq.instance (Core.Iwfq.create flows));
      ( "CSDPS (related work)",
        fun flows -> Core.Csdps.instance (Core.Csdps.create flows) );
    ]
  in
  let key name = Printf.sprintf "fair/%s" name in
  let jobs =
    List.map
      (fun (name, make_sched) ->
        {
          Runs.key = key name;
          slots = horizon;
          run =
            (fun () ->
              let flows =
                Array.init 2 (fun id -> Core.Params.flow ~id ~weight:1. ())
              in
              let sched = make_sched flows in
              let monitor =
                Core.Fairness.Monitor.create ~weights:[| 1.; 1. |] ~window:100
                  ~sched
              in
              let master = Wfs_util.Rng.create opts.seed in
              let setups =
                Array.init 2 (fun i ->
                    {
                      Core.Simulator.flow = flows.(i);
                      source = Wfs_traffic.Cbr.create ~interarrival:1. ();
                      channel =
                        (if i = 1 then
                           Wfs_channel.Gilbert_elliott.of_burstiness
                             ~rng:(Wfs_util.Rng.split master) ~good_prob:0.5
                             ~sum:0.1 ()
                         else Wfs_channel.Error_free.create ());
                    })
              in
              ignore
                (run_direct
                   ~hook:(Core.Fairness.Monitor.hook monitor)
                   ~horizon ~predictor:Wfs_channel.Predictor.One_step setups
                   sched);
              Runs.Fairness
                {
                  windows = Core.Fairness.Monitor.windows_sampled monitor;
                  jain = Core.Fairness.Monitor.mean_jain monitor;
                  gap = Core.Fairness.Monitor.worst_gap monitor;
                });
        })
      schedulers
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Ablation: windowed fairness, saturated flows, asymmetric channels (%d slots)"
             horizon)
        ~columns:[ "scheduler"; "windows"; "mean Jain"; "worst gap (pkts/weight)" ]
    in
    List.iter
      (fun (name, _) ->
        match get (key name) with
        | Runs.Fairness { windows; jain; gap } ->
            T.add_row t
              [
                name;
                string_of_int windows;
                cell ~decimals:4 jain;
                cell gap;
              ]
        | _ -> invalid_arg "fairness job returned a non-fairness result")
      schedulers;
    T.print t;
    [ t ]
  in
  { name = "Ablation: fairness"; jobs; render }

let ablation_aloha ~opts =
  (* Section 6.2's suggested improvement: p-persistent ALOHA in the
     notification sub-slot vs the single-shot baseline, under contention
     pressure from many sporadic uplink flows. *)
  let horizon = min opts.horizon 50_000 in
  let policies =
    [
      ("single-shot", Wfs_mac.Mac_sim.Single_shot);
      ("aloha p=0.75", Wfs_mac.Mac_sim.Aloha 0.75);
      ("aloha p=0.5", Wfs_mac.Mac_sim.Aloha 0.5);
      ("aloha p=0.25", Wfs_mac.Mac_sim.Aloha 0.25);
    ]
  in
  let key name = Printf.sprintf "mac/aloha/%s" name in
  let jobs =
    List.map
      (fun (name, contention) ->
        {
          Runs.key = key name;
          slots = horizon;
          run =
            (fun () ->
              let up host =
                { Wfs_mac.Frame.host; direction = Wfs_mac.Frame.Uplink; index = 0 }
              in
              let flows =
                Array.init 12 (fun i ->
                    {
                      Wfs_mac.Mac_sim.addr = up (i + 1);
                      weight = 1.;
                      source =
                        Wfs_traffic.Onoff.create
                          ~rng:(Wfs_util.Rng.create (opts.seed + i))
                          ~p_on_to_off:0.5 ~p_off_to_on:0.01 ();
                      channel = Wfs_channel.Error_free.create ();
                      drop = Core.Params.No_drop;
                    })
              in
              let cfg =
                Wfs_mac.Mac_sim.config
                  ~rng:(Wfs_util.Rng.create opts.seed)
                  ~contention ~horizon flows
              in
              Runs.Mac (Wfs_mac.Mac_sim.run cfg));
        })
      policies
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Ablation: notification contention policy, 12 sporadic uplinks (%d slots)"
             horizon)
        ~columns:
          [ "policy"; "wins"; "collisions"; "mean reveal delay"; "mean delay f0" ]
    in
    List.iter
      (fun (name, _) ->
        let r = Runs.mac get (key name) in
        T.add_row t
          [
            name;
            string_of_int r.Wfs_mac.Mac_sim.notifications_won;
            string_of_int r.Wfs_mac.Mac_sim.notification_collisions;
            cell r.Wfs_mac.Mac_sim.mean_reveal_delay;
            cell (M.mean_delay r.Wfs_mac.Mac_sim.metrics ~flow:0);
          ])
      policies;
    T.print t;
    [ t ]
  in
  { name = "Ablation: notification contention"; jobs; render }

let seed_confidence ~opts =
  (* The main tables use common random numbers across algorithms (plus
     optional --seeds replication).  This section quantifies raw seed
     sensitivity: Table 1's headline metrics across five fixed seeds,
     mean ± stddev. *)
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let algs = [ "WRR-P"; "SwapA-P"; "Blind WRR" ] in
  let spec_of alg seed = spec ~opts ~sum:0.1 ~seed 1 alg in
  let jobs =
    List.concat_map
      (fun alg -> List.map (fun seed -> Runs.spec_job (spec_of alg seed)) seeds)
      algs
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Seed sensitivity: Example 1 (pg+pe=0.1), 5 seeds x %d slots"
             opts.horizon)
        ~columns:[ "metric"; "mean"; "stddev"; "min"; "max" ]
    in
    let metric name alg f =
      let s = Summary.create () in
      List.iter
        (fun seed ->
          Summary.add s (f (Runs.metrics get (Spec.to_string (spec_of alg seed)))))
        seeds;
      T.add_row t
        [
          name;
          cell (Summary.mean s);
          cell (Summary.stddev s);
          cell (Summary.min s);
          cell (Summary.max s);
        ]
    in
    metric "WRR-P d1" "WRR-P" (fun m -> M.mean_delay m ~flow:0);
    metric "SwapA-P d1" "SwapA-P" (fun m -> M.mean_delay m ~flow:0);
    metric "SwapA-P d2" "SwapA-P" (fun m -> M.mean_delay m ~flow:1);
    metric "Blind WRR l1" "Blind WRR" (fun m -> M.loss m ~flow:0);
    T.print t;
    [ t ]
  in
  { name = "Seed sensitivity"; jobs; render }

let bounds_check ~opts =
  (* Section 5 empirically: Fact 1 and the throughput/delay theorems on an
     Example-1 run. *)
  let horizon = min opts.horizon 50_000 in
  let make_setups () = P.example1 ~sum:0.1 ~seed:opts.seed () in
  let checks =
    [
      ( "Fact 1: aggregate lag <= B",
        fun () ->
          Wfs_bounds.Verify.check_fact1 ~horizon ~make_setups
            ~predictor:Wfs_channel.Predictor.Perfect () );
      ( "Thm 2/6: long-term throughput (shift 600, uncapped lag)",
        fun () ->
          Wfs_bounds.Verify.check_long_term_throughput
            ~params:{ (Core.Params.iwfq_defaults ~n_flows:2) with lag_total = 1000. }
            ~horizon ~shift:600 ~make_setups
            ~predictor:Wfs_channel.Predictor.Perfect ~flow:0 () );
      ( "Thm 1: error-free flow delay shift <= B+1",
        fun () ->
          Wfs_bounds.Verify.check_error_free_delay
            ~params:{ (Core.Params.iwfq_defaults ~n_flows:2) with lag_total = 8. }
            ~horizon ~make_setups ~predictor:Wfs_channel.Predictor.Perfect ~flow:1
            () );
      ( "Thm 3: new-queue delay of error-free flow",
        fun () ->
          Wfs_bounds.Verify.check_new_queue_delay ~horizon ~make_setups
            ~predictor:Wfs_channel.Predictor.Perfect ~flow:1 () );
      ( "Thm 7: short-term throughput (100-slot windows)",
        fun () ->
          Wfs_bounds.Verify.check_short_term_throughput ~horizon ~window:100
            ~make_setups ~predictor:Wfs_channel.Predictor.Perfect ~flow:0 () );
    ]
  in
  let key name = Printf.sprintf "bounds/%s" name in
  let jobs =
    List.map
      (fun (name, check) ->
        {
          Runs.key = key name;
          slots = horizon;
          run = (fun () -> Runs.Bounds (check ()));
        })
      checks
  in
  let render get =
    let t =
      T.create
        ~title:
          (Printf.sprintf "Section 5 bounds, verified empirically (%d slots)"
             horizon)
        ~columns:[ "guarantee"; "samples"; "violations"; "worst slack" ]
    in
    List.iter
      (fun (name, _) ->
        let r = Runs.bounds get (key name) in
        T.add_row t
          [
            name;
            string_of_int r.Wfs_bounds.Verify.samples;
            string_of_int r.Wfs_bounds.Verify.violations;
            cell r.Wfs_bounds.Verify.worst_slack;
          ])
      checks;
    T.print t;
    [ t ]
  in
  { name = "Bounds verification"; jobs; render }

let sections ~opts =
  [
    table1 ~opts;
    table2 ~opts;
    table3 ~opts;
    table4 ~opts;
    table6 ~opts;
    table8 ~opts;
    table9 ~opts;
    table11 ~opts;
    ablation_amortized_credit ~opts;
    ablation_iwfq_vs_wps ~opts;
    ablation_snoop_period ~opts;
    ablation_swap_window ~opts;
    ablation_successors ~opts;
    ablation_fairness ~opts;
    ablation_aloha ~opts;
    series_burstiness ~opts;
    mac_overhead ~opts;
    seed_confidence ~opts;
    bounds_check ~opts;
  ]

let all ?run_opts ~opts () =
  let secs = sections ~opts in
  let run_opts =
    match run_opts with
    | Some r -> r
    | None -> Runs.default_opts ~jobs:opts.jobs
  in
  let stats, get, failures =
    Runs.exec ~opts:run_opts (List.concat_map (fun s -> s.jobs) secs)
  in
  let tables =
    List.concat_map
      (fun s ->
        Printf.printf "\n=== %s ===\n\n" s.name;
        match s.render get with
        | ts -> ts
        | exception Runs.Missing key ->
            Printf.printf "(section skipped: job %S failed; see failure table)\n"
              key;
            [])
      secs
  in
  (List.map Wfs_runner.Artifact.table_of tables, stats, failures)
