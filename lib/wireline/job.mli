(** A packet as seen by the continuous-time wireline schedulers: arrival is a
    real-valued instant and size is in bits. *)

type t = { flow : int; seq : int; arrival : float; size : float }

val make : flow:int -> seq:int -> arrival:float -> size:float -> t
(** @raise Invalid_argument on a non-positive size or negative arrival. *)
