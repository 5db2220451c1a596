(* xoshiro256** with splitmix64 seeding.  Chosen over Stdlib.Random to keep
   sample paths stable across OCaml releases and to support cheap stream
   splitting.

   The four 64-bit state words live in one 32-byte [Bytes], read and
   written through [get]/[set] below.  A step is straight-line [int64]
   arithmetic on unboxed registers: nothing is allocated as long as the
   step's [int64] result never leaves the function that consumes it.
   Without flambda an [int64] record field would box on every store,
   which is why the state is not a record.

   Two shapes of reader consume steps.  A single draw ([float], [bool],
   [int], [bernoulli]) loads the four words, steps once and stores them
   back.  A draw kernel ([poisson_knuth], [knuth_scan], [flip_run],
   [bernoulli_run]) is a whole loop of draws: it loads the words into
   local refs once, which the compiler turns into unboxed registers
   because they never escape, runs every step of the loop on those, and
   stores the words back once.  The RNG is the per-slot floor of the
   event-compressed simulator: byte-identity makes every dynamic channel
   and live source consume exactly one draw per slot, so draw cost bounds
   slots/s no matter how many slots the calendar skips.  Output is
   bit-exact xoshiro256**, pinned by the known-answer vectors in
   test_util, by a property holding every kernel to its per-draw loop,
   and by the golden CSVs. *)

type t = Bytes.t

(* The only access to the state: native byte order, no bounds check.
   Sound because [t] is abstract, so every value is the 32 bytes that
   [of_splitmix] or [copy] made, and every offset used is 0, 8, 16 or 24.
   The words are never read as bytes, only back through [get], so native
   order gives the same word values, and the same output, on every
   platform. *)
external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

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
    set t (8 * w) (splitmix64_next state)
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The output of a step from the state's second word: rotl(s1 * 5, 7) * 9. *)
let[@inline always] scramble s1 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

(* Top 53 bits of one output, scaled to [0,1). *)
let[@inline always] to_unit r =
  float_of_int (Int64.to_int (Int64.shift_right_logical r 11)) *. 0x1.0p-53

(* One xoshiro256** step through the stored state: the state transition,
   and as output the [scramble] of the old second word. *)
let[@inline always] step t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  scramble s1

let bits64 t = step t
let split t = of_splitmix (bits64 t)
let copy = Bytes.copy
let[@inline always] unit_float t = to_unit (step t)
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

(* --- Draw kernels ---

   Each keeps the state in [s0 .. s3] for its whole loop and spells the
   step out inline, since a helper taking the refs would make them
   escape: the six lines from [let x = !s1] to [s3 := ...], with output
   [scramble x], are the operations of [step] on the same words.  Knuth's
   inversion runs as [while !k < 0 || !p > limit]: the first pass always
   draws, and since [p] starts at 1., [1. *. u] is [u] exactly, so [p]
   and [k] follow the per-draw loop bit for bit. *)

let[@hot] [@inline always] poisson_knuth t ~limit =
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let k = ref (-1) and p = ref 1. in
  while !k < 0 || !p > limit do
    let x = !s1 in
    let t2 = Int64.logxor !s2 !s0 and t3 = Int64.logxor !s3 x in
    s0 := Int64.logxor !s0 t3;
    s1 := Int64.logxor x t2;
    s2 := Int64.logxor t2 (Int64.shift_left x 17);
    s3 := rotl t3 45;
    p := !p *. to_unit (scramble x);
    incr k
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3;
  !k

let[@hot] knuth_scan t ~limit ~len ~pending =
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < len do
    let k = ref (-1) and p = ref 1. in
    while !k < 0 || !p > limit do
      let x = !s1 in
      let t2 = Int64.logxor !s2 !s0 and t3 = Int64.logxor !s3 x in
      s0 := Int64.logxor !s0 t3;
      s1 := Int64.logxor x t2;
      s2 := Int64.logxor t2 (Int64.shift_left x 17);
      s3 := rotl t3 45;
      p := !p *. to_unit (scramble x);
      incr k
    done;
    if !k > 0 then begin
      pending := !k;
      found := !i
    end;
    incr i
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3;
  !found

let[@hot] flip_run t state ~p_true ~p_false ~len ~until_true =
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let g = ref !state and found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < len do
    let x = !s1 in
    let t2 = Int64.logxor !s2 !s0 and t3 = Int64.logxor !s3 x in
    s0 := Int64.logxor !s0 t3;
    s1 := Int64.logxor x t2;
    s2 := Int64.logxor t2 (Int64.shift_left x 17);
    s3 := rotl t3 45;
    if to_unit (scramble x) < (if !g then p_true else p_false) then g := not !g;
    if until_true && !g then found := !i;
    incr i
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3;
  state := !g;
  !found

let[@hot] bernoulli_run t p ~len =
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let hit = ref false in
  for _ = 1 to len do
    let x = !s1 in
    let t2 = Int64.logxor !s2 !s0 and t3 = Int64.logxor !s3 x in
    s0 := Int64.logxor !s0 t3;
    s1 := Int64.logxor x t2;
    s2 := Int64.logxor t2 (Int64.shift_left x 17);
    s3 := rotl t3 45;
    hit := to_unit (scramble x) < p
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3;
  !hit

(* [poisson_knuth] is inlined here, so the fresh [exp (-. mean)] stays
   unboxed. *)
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
