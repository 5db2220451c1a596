(** Central scheduler registry: canonical paper names to constructors.

    Every wireless scheduler variant the evaluation exercises is registered
    here once, under its table row label (["SwapA-P"], ["IWFQ-I"],
    ["CIF-Q-P"], ["Blind WRR"], ["CSDPS"], ...) plus aliases (["WPS"] is the
    paper's name for the full predicted SwapA variant).  The bench, the CLI
    drivers and the comparative tests all resolve schedulers through
    {!find}/{!get}, so adding a scheduler to the whole evaluation pipeline
    is one {!register} call.

    Entries keep registration order, which is the presentation and
    enumeration order.  Lookups are case-insensitive over canonical names
    and aliases. *)

type entry = {
  name : string;  (** canonical table label, e.g. ["SwapA-P"] *)
  aliases : string list;
  predictor : Wfs_channel.Predictor.kind;
      (** channel knowledge the variant runs with: [Perfect] for "-I" rows,
          [One_step] for "-P" rows, [Blind] for blind WRR *)
  make :
    ?credit_limit:int ->
    ?debit_limit:int ->
    ?limits:(int * int) array ->
    Params.flow array ->
    Wireless_sched.instance;
      (** scheduler constructor; [credit_limit]/[debit_limit] default to the
          paper's 4/4 where applicable, [limits] gives per-flow overrides
          (Example 6's sweep) *)
}

val register : entry -> unit
(** Append to the store.
    @raise Invalid_argument when the name or an alias
    (case-insensitively) collides with an existing registration. *)

val find : string -> entry option
(** Resolve a canonical name or alias, case-insensitively. *)

val lookup : string -> (entry, Wfs_util.Error.t) result
(** {!find} with a typed miss: unknown names become kind [Bad_config]
    with the known names in the context.  Never raises. *)

val get : string -> entry
(** Like {!find}.
    @raise Invalid_argument on an unknown name, listing the known ones. *)

val mem : string -> bool

val names : unit -> string list
(** Canonical names in registration order. *)

val entries : unit -> entry list
(** All entries in registration order. *)

val table1 : unit -> entry list
(** The nine rows of the paper's Tables 1–4, in paper order. *)

val table1_extended : unit -> entry list
(** {!table1} plus the IWFQ-I / IWFQ-P rows the paper defines but does not
    simulate — the grid the bench regenerates. *)
