(** Minimal JSON tree, writer and reader.

    Just enough JSON for the bench artifact ([BENCH_*.json]): objects,
    arrays, strings (with escapes), ints, floats, bools, null.  The writer
    and reader round-trip each other exactly — floats are printed with the
    shortest decimal form that restores the same bits.  No external
    dependency (the image has no yojson). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val float_to_string : float -> string
(** Shortest decimal representation that parses back to the same float. *)

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default true) adds newlines and two-space indentation. *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit
(** {!to_string}'s text, appended to the buffer. *)

val of_string : string -> (t, string) result
(** Parse a JSON document; [Error] carries a message with a character
    offset.  Accepts exactly the subset {!to_string} emits (plus arbitrary
    whitespace). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)

val to_int : t -> int option
val to_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish 3 from 3.0). *)

val to_str : t -> string option
val to_list : t -> t list option

(** {1 Non-finite-safe floats}

    JSON has no nan/inf literals; these helpers encode non-finite floats
    as the strings ["nan"] / ["inf"] / ["-inf"] so serializers of
    possibly-degenerate statistics (empty {!Wfs_util.Stats.Summary}
    min/max, unbounded slack) still round-trip exactly. *)

val of_float_ext : float -> t
val to_float_ext : t -> float option
(** Accepts [Int] too, like {!to_float}. *)
