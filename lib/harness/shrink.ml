(* Automatic failure shrinking (robustness layer).

   A failing, crashing or disagreeing litmus test out of a thousand-test
   sweep is rarely minimal: most of its threads, instructions and
   condition clauses are noise.  [minimise] is a greedy delta-debugging
   loop in the ddmin spirit: propose structurally smaller variants,
   re-run the oracle on each, commit to the first variant that still
   trips and restart, until no proposed reduction trips (a fixed point
   under the reduction set).  The oracle re-runs the suspect test, so it
   should be an *isolated* check ({!isolated_check} runs one item
   through {!Pool} in its own process) whenever the failure is a crash.

   The reduction set, tried in order of expected payoff:
   - drop a whole thread (condition atoms of dropped threads become
     [Ctrue], later thread indices shift down);
   - drop one top-level instruction of one thread;
   - replace an [If] with either of its branches;
   - shrink the final condition one connective at a time
     ([And]/[Or] to either side, [Not c] to [c], an atom to [Ctrue]);
   - drop one initial-value binding.

   Every proposal is deterministic, so a given test and oracle always
   shrink to the same reproducer. *)

module Ast = Litmus.Ast

(* Structural size: what the greedy loop minimises.  Threads count so
   that dropping an empty thread still helps; instructions count
   recursively so [If] bodies weigh their contents. *)
let rec instr_size (i : Ast.instr) =
  match i with
  | Ast.If (_, a, b) ->
      1 + List.fold_left (fun n i -> n + instr_size i) 0 (a @ b)
  | _ -> 1

let rec cond_size (c : Ast.cond) =
  match c with
  | Ast.Ctrue -> 0
  | Ast.Atom _ -> 1
  | Ast.Not c -> 1 + cond_size c
  | Ast.And (a, b) | Ast.Or (a, b) -> 1 + cond_size a + cond_size b

let size (t : Ast.t) =
  Array.fold_left
    (fun n is -> n + 1 + List.fold_left (fun n i -> n + instr_size i) 0 is)
    0 t.Ast.threads
  + cond_size t.Ast.cond
  + List.length t.Ast.init

(* ------------------------------------------------------------------ *)
(* Reduction proposals                                                 *)
(* ------------------------------------------------------------------ *)

let rec map_cond f (c : Ast.cond) =
  match c with
  | Ast.Atom a -> f a
  | Ast.Not c -> Ast.Not (map_cond f c)
  | Ast.And (a, b) -> Ast.And (map_cond f a, map_cond f b)
  | Ast.Or (a, b) -> Ast.Or (map_cond f a, map_cond f b)
  | Ast.Ctrue -> Ast.Ctrue

(* Dropping thread [i]: atoms observing it become [Ctrue] (the oracle
   re-checks, so weakening the condition is safe), observers of later
   threads shift down. *)
let drop_thread (t : Ast.t) i =
  let threads =
    Array.of_list
      (List.filteri (fun j _ -> j <> i) (Array.to_list t.Ast.threads))
  in
  let cond =
    map_cond
      (function
        | Ast.Reg_eq (tid, _, _) when tid = i -> Ast.Ctrue
        | Ast.Reg_eq (tid, r, v) when tid > i ->
            Ast.Atom (Ast.Reg_eq (tid - 1, r, v))
        | a -> Ast.Atom a)
      t.Ast.cond
  in
  { t with Ast.threads; cond }

let replace_thread (t : Ast.t) i is =
  let threads = Array.copy t.Ast.threads in
  threads.(i) <- is;
  { t with Ast.threads }

(* All one-step reductions of one thread's instruction list: drop a
   top-level instruction, or inline an [If] as either branch. *)
let instr_reductions (is : Ast.instr list) =
  let n = List.length is in
  let drops =
    List.init n (fun k -> List.filteri (fun j _ -> j <> k) is)
  in
  let inlines =
    List.concat
      (List.mapi
         (fun k i ->
           match i with
           | Ast.If (_, a, b) ->
               let splice branch =
                 List.concat
                   (List.mapi
                      (fun j i' -> if j = k then branch else [ i' ])
                      is)
               in
               [ splice a; splice b ]
           | _ -> [])
         is)
  in
  drops @ inlines

(* All one-step reductions of the final condition. *)
let rec cond_reductions (c : Ast.cond) : Ast.cond list =
  match c with
  | Ast.Ctrue -> []
  | Ast.Atom _ -> [ Ast.Ctrue ]
  | Ast.Not c' ->
      c' :: List.map (fun r -> Ast.Not r) (cond_reductions c')
  | Ast.And (a, b) ->
      [ a; b ]
      @ List.map (fun r -> Ast.And (r, b)) (cond_reductions a)
      @ List.map (fun r -> Ast.And (a, r)) (cond_reductions b)
  | Ast.Or (a, b) ->
      [ a; b ]
      @ List.map (fun r -> Ast.Or (r, b)) (cond_reductions a)
      @ List.map (fun r -> Ast.Or (a, r)) (cond_reductions b)

(* Every candidate one-step reduction of [t], largest strides first.
   A candidate is only proposed if it is strictly smaller, so the
   greedy loop terminates. *)
let candidates (t : Ast.t) : Ast.t list =
  let n_threads = Array.length t.Ast.threads in
  let threads =
    if n_threads <= 1 then []
    else List.init n_threads (fun i -> drop_thread t i)
  in
  let instrs =
    List.concat
      (List.init n_threads (fun i ->
           List.map
             (replace_thread t i)
             (instr_reductions t.Ast.threads.(i))))
  in
  let conds =
    List.map (fun c -> { t with Ast.cond = c }) (cond_reductions t.Ast.cond)
  in
  let inits =
    List.init
      (List.length t.Ast.init)
      (fun k ->
        { t with Ast.init = List.filteri (fun j _ -> j <> k) t.Ast.init })
  in
  List.filter
    (fun t' -> size t' < size t)
    (threads @ instrs @ conds @ inits)

(* ------------------------------------------------------------------ *)
(* The greedy loop                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  reduced : Ast.t;
  steps : int; (* accepted reductions *)
  oracle_runs : int; (* total oracle invocations *)
  initial_size : int;
  final_size : int;
}

(* [minimise ~oracle t] — [oracle t'] must answer "does [t'] still trip
   the failure under investigation?".  [t] itself is assumed to trip
   (callers check first; shrinking a healthy test returns it
   unchanged because no reduction will trip).  [max_steps] bounds
   accepted reductions as a runaway backstop. *)
let minimise ?(max_steps = 10_000) ~oracle (t : Ast.t) =
  let oracle_runs = ref 0 in
  let check t' =
    incr oracle_runs;
    oracle t'
  in
  let rec go t steps =
    if steps >= max_steps then (t, steps)
    else
      match List.find_opt check (candidates t) with
      | Some t' -> go t' (steps + 1)
      | None -> (t, steps)
  in
  let reduced, steps = go t 0 in
  {
    reduced;
    steps;
    oracle_runs = !oracle_runs;
    initial_size = size t;
    final_size = size reduced;
  }

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(* A coarse fingerprint of an entry's classified outcome: shrinking
   preserves the fingerprint, so a segfault cannot "shrink" into a
   parse error and a Forbid-instead-of-Allow cannot drift into a
   different mismatch. *)
let fingerprint (e : Report.entry) =
  match e.Report.status with
  | Report.Pass v -> "pass:" ^ Exec.Check.verdict_to_string v
  | Report.Fail { expected; got } ->
      Printf.sprintf "fail:%s->%s"
        (Exec.Check.verdict_to_string expected)
        (Exec.Check.verdict_to_string got)
  | Report.Gave_up r -> (
      "gave_up:"
      ^
      match r with
      | Exec.Budget.Timed_out _ -> "timeout"
      | Exec.Budget.Too_many_events _ -> "events"
      | Exec.Budget.Too_many_candidates _ -> "candidates"
      | Exec.Budget.Heap_exceeded _ -> "heap")
  | Report.Err { cls = Report.Crash s; _ } ->
      "crash:" ^ Exec.Check.signal_name s
  | Report.Err { cls; _ } -> "error:" ^ Report.class_to_string cls

(* One isolated check: a single-item pool run (own process, watchdog,
   heap cap), returning that item's entry.  This is the [check] to
   build oracles from when the failure can kill its process. *)
let isolated_check ?(config = Pool.default) ?worker ?(oracle = Lkmm.oracle)
    ?backend ?(expected : Exec.Check.verdict option) (t : Ast.t) =
  let config = { config with Pool.jobs = 1 } in
  let item = { Runner.id = t.Ast.name; source = `Ast t; expected } in
  let report = Pool.run ~config ?worker ?backend ~oracle [ item ] in
  List.hd report.Report.entries

(* [entry_oracle ~check base] — the canonical oracle: [t'] trips iff
   its entry carries the same fingerprint as the original failure. *)
let entry_oracle ~(check : Ast.t -> Report.entry) (base : Report.entry) =
  let want = fingerprint base in
  fun t' -> String.equal (fingerprint (check t')) want

(* End-to-end: given a failing entry and its test, produce the minimal
   reproducer still tripping the same fingerprint. *)
let shrink_entry ?max_steps ~(check : Ast.t -> Report.entry)
    (base : Report.entry) (t : Ast.t) =
  minimise ?max_steps ~oracle:(entry_oracle ~check base) t

(* Write a reproducer next to a report: [path] is the destination
   [.litmus] file; the write is atomic (temp file + rename) so a crash
   mid-write cannot leave a torn reproducer. *)
let write_reproducer path (t : Ast.t) =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Litmus.to_string t));
  Sys.rename tmp path
