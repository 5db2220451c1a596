(* The wfs_analyze rule set.  Ids continue the wfs_lint numbering in their
   own namespace (A1..A4) so a diagnostic line always says which tier of
   the pipeline produced it.  See docs/ANALYSIS.md for the full model
   behind each analysis. *)

module Diag = Analysis_kit.Diag

let a1 = { Diag.id = "A1"; title = "untracked nondeterminism (typed taint)" }
let a2 = { Diag.id = "A2"; title = "cross-domain mutable state" }
let a3 = { Diag.id = "A3"; title = "registry coverage" }
let a4 = { Diag.id = "A4"; title = "stale analysis suppression" }
let all_rules = [ a1; a2; a3; a4 ]

let rule_of_id tok =
  let tok = String.uppercase_ascii tok in
  List.find_opt (fun r -> String.equal r.Diag.id tok) all_rules

let marker = "analyze: allow"

let help =
  [
    ( "A1",
      "determinism taint over the cross-module call graph: any lib/ \
       function that transitively reaches an ambient-nondeterminism \
       source (Random.*, wall-clock reads, hash-order iteration) without \
       going through the seeded Wfs_util.Rng boundary is \
       flagged, and so is any alias-resolved use of the polymorphic \
       runtime comparator at a non-immediate type (the cases the \
       syntactic R1/R2 rules cannot see)" );
    ( "A2",
      "domain-safety race check: a thunk that flows into Domain.spawn or \
       Wfs_runner.Pool.map/map_outcomes may not capture mutable state \
       (refs, arrays, bytes, mutable records, Hashtbl/Queue/Stack/Buffer) \
       unless it is Atomic.t/Mutex.t-class, and may not transitively \
       write module-global mutable state; justify provably-safe sharing \
       with an allow-comment stating the ownership invariant" );
    ( "A3",
      "registry coverage audit: every lib/ module that constructs a \
       Wireless_sched.instance must be reachable from a \
       Wfs_core.Registry.register site, wire at least one probe field \
       for the invariant monitors, and be referenced from the test \
       suite — a scheduler cannot ship unregistered, unprobed, or \
       untested" );
    ( "A4",
      "suppression hygiene: every '(* analyze: allow A<n> <justification> \
       *)' must be well-formed and must still silence a live diagnostic; \
       stale or malformed justifications fail the build" );
  ]
