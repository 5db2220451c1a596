(** Plain-text table rendering for the benchmark harness.

    Produces aligned, pipe-separated tables mirroring the layout of the
    paper's result tables so measured and published rows can be eyeballed
    side by side. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption row and the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows
    are truncated. *)

val add_float_row : t -> label:string -> ?decimals:int -> float list -> unit
(** Convenience: a label cell followed by formatted floats (default 2
    decimals; integers render without a fractional part; [nan] renders
    as [-]). *)

val title : t -> string
val columns : t -> string list

val rows : t -> string list list
(** Added rows in insertion order, already padded/truncated to the header
    width — the shape serialized into the bench's JSON artifact. *)

val render : t -> string
val print : t -> unit

val cell_of_float : ?decimals:int -> float -> string
(** Shared float formatting used by [add_float_row]. *)

val cell_of_replicas : ?decimals:int -> 'a list -> ('a -> float) -> string
(** One cell for a replicated measurement: [f]'s value formatted by
    {!cell_of_float} for a single replica, ["mean±ci"] across several
    (mean and 95% Student-t half-width, {!Stats.Summary.ci95}, folded in
    list order). *)
