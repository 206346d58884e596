(* A diy-style litmus-test generator (Section 5): enumerate cycles of
   relaxation edges of increasing size and realise each as a litmus test.

   - {!Edge}: the relaxation vocabulary (communications, program order,
     fences, dependencies, release/acquire);
   - {!Cycle}: enumeration, validity, canonicalisation;
   - {!Realize}: cycle -> litmus test, with self-validation. *)

module Edge = Edge
module Cycle = Cycle
module Realize = Realize

(** [generate ?vocabulary n] is every valid canonical cycle of length [n]
    realised as a litmus test. *)
let generate ?vocabulary n =
  List.filter_map Realize.test_of_cycle (Cycle.enumerate ?vocabulary n)

(* The edges a walk may take next, per direction of the event it stands
   on ([None]: unconstrained, e.g. the first step), in vocabulary order.
   Computed once per vocabulary; the one-entry memo is keyed on the
   vocabulary list physically and swapped atomically, so domains
   generating concurrently at worst rebuild it. *)
type step_table = {
  any : Edge.t array;
  from_r : Edge.t array;
  from_w : Edge.t array;
}

let step_table_of vocabulary =
  let from d =
    Array.of_list
      (List.filter
         (fun e -> match Edge.src_dir e with Some d' -> d = d' | None -> true)
         vocabulary)
  in
  { any = Array.of_list vocabulary; from_r = from Edge.R; from_w = from Edge.W }

let step_memo : (Edge.t list * step_table) option Atomic.t = Atomic.make None

let step_table vocabulary =
  match Atomic.get step_memo with
  | Some (v, t) when v == vocabulary -> t
  | _ ->
      let t = step_table_of vocabulary in
      Atomic.set step_memo (Some (vocabulary, t));
      t

(* Build one junction-consistent random cycle of length [n], so most
   candidates are sane; full validity is still checked by Cycle.sane /
   Realize.  Shared by {!sample} and the deterministic per-seed
   generation below: one RNG draw per step, uniform over the edges the
   step table allows. *)
let random_cycle ~vocabulary ~rng n =
  let table = step_table vocabulary in
  let rec go acc prev k =
    if k = 0 then Some (List.rev acc)
    else
      let compat =
        match prev with
        | None -> table.any
        | Some Edge.R -> table.from_r
        | Some Edge.W -> table.from_w
      in
      if Array.length compat = 0 then None
      else
        let e = compat.(Random.State.int rng (Array.length compat)) in
        go (e :: acc) (Edge.tgt_dir e) (k - 1)
  in
  go [] None n

(** [sample ?vocabulary ~rng ~count n] realises up to [count] random
    cycles of length [n]; used for sweeps where full enumeration is too
    large. *)
let sample ?(vocabulary = Edge.vocabulary) ~rng ~count n =
  let pick () = random_cycle ~vocabulary ~rng n in
  let seen = Hashtbl.create 64 in
  let rec go acc tries =
    if List.length acc >= count || tries > count * 200 then List.rev acc
    else
      match pick () with
      | Some c when Cycle.sane c -> (
          let key = Cycle.name (Cycle.canonical c) in
          if Hashtbl.mem seen key then go acc (tries + 1)
          else begin
            Hashtbl.replace seen key ();
            match Realize.test_of_cycle c with
            | Some t -> go (t :: acc) (tries + 1)
            | None -> go acc (tries + 1)
          end)
      | _ -> go acc (tries + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Deterministic per-seed generation (campaign shards)                  *)
(* ------------------------------------------------------------------ *)

(** [test_of_seed ?vocabulary ~size seed] is the test seed [seed]
    denotes at cycle length [size], or [None] when that seed's random
    walk does not produce a realisable cycle.

    The binding seed -> test is a pure function: the RNG is seeded from
    [(size, seed)] alone, the walk consumes it deterministically, and
    the cycle is canonicalised before realisation, so the same seed
    always yields the byte-identical test — across calls, processes and
    machines.  This is the property campaign shards depend on: a shard
    is just a (config, seed range) pair, and any worker can regenerate
    its tests on demand instead of reading 10^6 files from disk.

    Distinct seeds may collide on the same canonical cycle (the walk is
    random, not a bijection); campaign journals key results by seed, so
    collisions are harmless and deduplicated only where display wants
    unique test names. *)
let test_of_seed ?(vocabulary = Edge.vocabulary) ~size seed =
  let rng = Random.State.make [| 0x6c6b6d6d; size; seed |] in
  match random_cycle ~vocabulary ~rng size with
  | Some c when Cycle.sane c -> Realize.test_of_cycle (Cycle.canonical c)
  | _ -> None

(** [generate_range ?vocabulary ~size lo hi] — every [(seed, test)] for
    seeds in [\[lo, hi)], in seed order; seeds whose walk fails realise
    nothing and are skipped. *)
let generate_range ?vocabulary ~size lo hi =
  let rec go acc s =
    if s >= hi then List.rev acc
    else
      match test_of_seed ?vocabulary ~size s with
      | Some t -> go ((s, t) :: acc) (s + 1)
      | None -> go acc (s + 1)
  in
  go [] lo
