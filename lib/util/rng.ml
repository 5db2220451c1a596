(* xoshiro256** with splitmix64 seeding.  Chosen over Stdlib.Random to keep
   sample paths stable across OCaml releases and to support cheap stream
   splitting.

   The four 64-bit state words live in one 32-byte [Bytes], read and
   written with [Bytes.get_int64_le]/[set_int64_le].  Those accessors are
   compiler primitives behind a one-line stdlib wrapper, so a step is
   straight-line [int64] arithmetic on unboxed registers: nothing is
   allocated as long as the step's [int64] result never leaves the
   function that consumes it.  [step] is therefore inlined into every
   reader — [float], [bool], [int], [bernoulli] and the Knuth loop of
   [poisson_knuth] — each of which returns an immediate (or, for [float],
   one boxed float to a caller in another module).  Without flambda an
   [int64] record field would box on every store, which is why the state
   is not a record.  The RNG is the per-slot floor of the event-compressed
   simulator: byte-identity makes every dynamic channel and live source
   consume exactly one draw per slot, so draw cost bounds slots/s no
   matter how many slots the calendar skips.  Output is bit-exact
   xoshiro256**, pinned by the known-answer vectors in test_util and by
   the golden CSVs. *)

type t = Bytes.t

(* Seeding stays in boxed [Int64] — it runs once per stream, never per
   slot. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_le t (8 * w) (splitmix64_next state)
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the output rotl(s1 * 5, 7) * 9, then the state
   scramble. *)
let[@inline always] step t =
  let s0 = Bytes.get_int64_le t 0 in
  let s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 in
  let s3 = Bytes.get_int64_le t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let bits64 t = step t
let split t = of_splitmix (bits64 t)
let copy = Bytes.copy

(* Top 53 bits of one output, scaled to [0,1). *)
let[@inline always] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (step t) 11))
  *. 0x1.0p-53

let[@hot] float t = unit_float t

let int t n =
  assert (n > 0);
  (* Rejection sampling on the low bits to avoid modulo bias. *)
  if n = 1 then 0
  else begin
    let mask =
      let rec widen m = if m >= n - 1 then m else widen ((m lsl 1) lor 1) in
      widen 1
    in
    (* [mask < 2^62], so the low 63 bits [Int64.to_int] keeps are enough. *)
    let v = ref (Int64.to_int (step t) land mask) in
    while !v >= n do
      v := Int64.to_int (step t) land mask
    done;
    !v
  end

let bool t = Int64.to_int (step t) land 1 <> 0
let[@hot] bernoulli t p = unit_float t < p

let exponential t ~rate =
  assert (rate > 0.);
  let u = float t in
  (* 1 - u is in (0,1], so log is finite. *)
  -.log (1. -. u) /. rate

(* Inversion by sequential search (Knuth), linear in the mean: the number
   of draws before their running product falls to [limit].  A local float
   ref, so the product is never boxed. *)
let[@hot] poisson_knuth t ~limit =
  let k = ref 0 in
  let p = ref (unit_float t) in
  while !p > limit do
    incr k;
    p := !p *. unit_float t
  done;
  !k

let poisson t ~mean =
  assert (mean >= 0.);
  if mean <= 0. then 0
  else if mean < 500. then poisson_knuth t ~limit:(exp (-.mean))
  else begin
    (* Normal approximation; adequate for the rare huge-mean case. *)
    let u1 = float t and u2 = float t in
    let z = sqrt (-2. *. log (1. -. u1)) *. cos (2. *. Float.pi *. u2) in
    let x = mean +. (sqrt mean *. z) in
    if x < 0. then 0 else int_of_float (Float.round x)
  end

let geometric t ~p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else
    let u = float t in
    int_of_float (floor (log (1. -. u) /. log (1. -. p)))

let uniform t ~lo ~hi =
  assert (hi >= lo);
  lo +. ((hi -. lo) *. float t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
