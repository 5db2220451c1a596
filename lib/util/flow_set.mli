(** Sorted index of flow ids over a fixed universe [0..n-1].

    The backlogged-flow index behind sub-linear scheduler selection:
    membership tests are O(1) and iteration visits members in {e ascending
    id order} — the same order the naive full-array scans used, which is
    what keeps heap- and index-based selection byte-identical to them.
    [add]/[remove] are O(cardinal) (array shift): cheap in the
    few-active-among-many regime this index targets. *)

type t

val create : n:int -> t
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool
val add : t -> int -> unit
(** No-op if already a member. *)

val remove : t -> int -> unit
(** No-op if not a member. *)

val get : t -> int -> int
(** [get t i] is the [i]-th smallest member.
    @raise Wfs_util.Error.Error if [i >= cardinal t]. *)

val find_from : t -> int -> int
(** [find_from t flow] is the position (for {!get}) of the smallest member
    [>= flow], or [cardinal t] if none — the starting point for cyclic
    round-robin iteration. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
