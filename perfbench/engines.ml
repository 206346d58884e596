(* The checking columns a workload runs, through the public Oracle API,
   and the traced run's attribution of one check to the layers under
   it.

   Attribution is measured from outside: for each test the traced run
   times the exec layer directly — [Exec.thread_candidate_lists]
   (sem), forcing [Exec.of_test_seq] (enumerate) and
   [Exec.coherent] on every candidate (prefilter) — and charges
   those times to exec once per enumerating check of the test.  A
   checker's self time is its call's duration minus the exec work it
   contains; the symbolic engine contains sem only. *)

open Common

type column = Lk | Cat | Sat | C11

let column_name = function
  | Lk -> "lk"
  | Cat -> "cat"
  | Sat -> "sat"
  | C11 -> "c11"

(* Deterministic per-test budget (no wall clock): the campaign
   orchestrator's attempt-1 caps, so Unknown depends only on the test. *)
let limits = Harness.Campaign.default.Harness.Campaign.limits

let c11_oracle = Exec.Oracle.of_model (module Models.C11)

(* The cat-interpreted LK model: parse and compile, the set-up cost of
   the cat column. *)
let cat_oracle () = Cat.to_oracle ~name:"LK(cat)" (Cat.parse Cat.Stdmodels.lk)

let applicable col (t : Litmus.Ast.t) =
  match col with C11 -> Models.C11.applicable t | Lk | Cat | Sat -> true

let run ~cat col (t : Litmus.Ast.t) =
  let budget = Exec.Budget.start limits in
  match col with
  | Lk -> Exec.Oracle.run ~budget Lkmm.oracle t
  | Cat -> Exec.Oracle.run ~budget cat t
  | Sat -> Exec.Oracle.run ~budget ~backend:Exec.Check.Sat Lkmm.oracle t
  | C11 -> Exec.Oracle.run ~budget c11_oracle t

(* ------------------------------------------------------------------ *)
(* Traced attribution                                                  *)
(* ------------------------------------------------------------------ *)

let layer_of = function
  | Lk -> "lkmm.self"
  | Cat -> "cat.self"
  | Sat -> "sat.self"
  | C11 -> "models.c11_self"

type probe = { sem : float; enum : float; pre : float }

(* Probe time is the benchmark's own, charged to no layer: the traced
   run subtracts it from the wall before computing coverage. *)
let probe_us = ref 0.
let candidates = ref 0
let incoherent = ref 0

let probe (t : Litmus.Ast.t) =
  let t0 = Obs.now_us () in
  let _, sem =
    Layers.timed "probe.sem" (fun () -> Exec.thread_candidate_lists t)
  in
  let xs, enum =
    Layers.timed "probe.enumerate" (fun () ->
        let budget = Exec.Budget.start limits in
        let acc = ref [] in
        (try Seq.iter (fun x -> acc := x :: !acc)
               (Exec.of_test_seq ~budget t)
         with Exec.Budget.Exceeded _ -> ());
        !acc)
  in
  let bad, pre =
    Layers.timed "probe.prefilter" (fun () ->
        List.fold_left
          (fun n x -> if Exec.coherent x then n else n + 1)
          0 xs)
  in
  candidates := !candidates + List.length xs;
  incoherent := !incoherent + bad;
  probe_us := !probe_us +. (Obs.now_us () -. t0);
  (* of_test_seq re-runs sem inside; enumeration's self time excludes it *)
  { sem; enum = Float.max 0. (enum -. sem); pre }

(* Counter movements attributed to the native LK column. *)
let lk_flushes = ref 0
let lk_planes = ref 0.
let lk_early = ref 0
let lk_words = ref 0
let sat_conflicts = ref 0
let sat_decisions = ref 0

let occupancy_sum () = (hist "check.batch.occupancy").Obs.h_sum

(* [run_traced ~cat ~p col t] runs one check under a span and charges
   it: exec gets the probed sem/enumerate/prefilter times, the column's
   layer the remainder. *)
let run_traced ~cat ~(p : probe) col t =
  let before_flush = counter "check.batch.flushes"
  and before_planes = occupancy_sum ()
  and before_early = counter "lkmm.batch.early_exit"
  and before_words = counter "rel.words" in
  let r, dt = Layers.timed (layer_of col) (fun () -> run ~cat col t) in
  (match col with
  | Sat ->
      Layers.add "exec.sem" p.sem;
      Layers.add "sat.self" (dt -. p.sem);
      Option.iter
        (fun (s : Exec.Check.sat_stats) ->
          sat_conflicts := !sat_conflicts + s.Exec.Check.conflicts;
          sat_decisions := !sat_decisions + s.Exec.Check.decisions)
        r.Exec.Check.sat
  | Lk | Cat | C11 ->
      Layers.add "exec.sem" p.sem;
      Layers.add "exec.enumerate" p.enum;
      Layers.add "exec.prefilter" p.pre;
      Layers.add (layer_of col) (dt -. p.sem -. p.enum -. p.pre));
  if col = Lk then begin
    lk_flushes := !lk_flushes + counter "check.batch.flushes" - before_flush;
    lk_planes := !lk_planes +. occupancy_sum () -. before_planes;
    lk_early := !lk_early + counter "lkmm.batch.early_exit" - before_early;
    lk_words := !lk_words + counter "rel.words" - before_words
  end;
  r

(* Every applicable column of [columns] on [t], with its result;
   [traced] probes the test once and attributes each check. *)
let check_all ~cat ~traced columns t =
  let p = if traced then Some (probe t) else None in
  List.filter_map
    (fun col ->
      if not (applicable col t) then None
      else
        match p with
        | Some p -> Some (col, run_traced ~cat ~p col t)
        | None -> Some (col, run ~cat col t))
    columns

(* Self-time layers, in the order the table prints them. *)
let self_layers =
  [
    "litmus.parse";
    "diygen.generate";
    "exec.sem";
    "exec.enumerate";
    "exec.prefilter";
    "lkmm.self";
    "cat.self";
    "models.c11_self";
    "sat.self";
  ]

(* The per-layer metrics every traced workload reports: self times in
   ms per pass, the exec/lkmm/cat/sat counters over the traced passes.
   Layers a workload does not exercise read 0. *)
let layer_metrics ~passes =
  let per_pass n = float_of_int n /. float_of_int (max 1 passes) in
  let ms name = Layers.ms ~passes name in
  let cat_hits = counter "cat.cache.hits"
  and cat_misses = counter "cat.cache.misses" in
  [
    ("litmus.parse_ms", ms "litmus.parse", "ms");
    ("diygen.generate_ms", ms "diygen.generate", "ms");
    ("exec.sem_ms", ms "exec.sem", "ms");
    ("exec.enumerate_ms", ms "exec.enumerate", "ms");
    ("exec.candidates", per_pass !candidates, "count");
    ("exec.prefilter_ms", ms "exec.prefilter", "ms");
    ( "exec.prefilter_hit_ratio",
      ratio (float_of_int !incoherent) (float_of_int !candidates),
      "ratio" );
    ("lkmm.self_ms", ms "lkmm.self", "ms");
    ("lkmm.plane_occupancy", ratio !lk_planes (float_of_int !lk_flushes), "planes");
    ("lkmm.early_exit_ratio", ratio (float_of_int !lk_early) !lk_planes, "ratio");
    ("rel.words", per_pass !lk_words, "count");
    ("cat.self_ms", ms "cat.self", "ms");
    ( "cat.prefix_cache_hit_ratio",
      ratio (float_of_int cat_hits) (float_of_int (cat_hits + cat_misses)),
      "ratio" );
    ("models.c11_self_ms", ms "models.c11_self", "ms");
    ("sat.self_ms", ms "sat.self", "ms");
    ("sat.conflicts", per_pass !sat_conflicts, "count");
    ("sat.decisions", per_pass !sat_decisions, "count");
    ("sat.fallbacks", float_of_int (counter "sat.fallback"), "count");
  ]

(* Σ layer self time over the traced wall, the probes taken out. *)
let coverage ~wall_us =
  ratio (sum (List.map Layers.get self_layers)) (wall_us -. !probe_us)

(* The self-time table, on stderr: where the traced passes went. *)
let print_table ~passes ~wall_us =
  Printf.eprintf "perfbench: layer self time, ms per pass (%d passes)\n" passes;
  List.iter
    (fun l ->
      Printf.eprintf "  %-20s %10.3f  %5.1f%%\n" l (Layers.ms ~passes l)
        (100. *. ratio (Layers.get l) (wall_us -. !probe_us)))
    self_layers;
  Printf.eprintf "  %-20s %10.3f\n%!" "(probes, excluded)"
    (!probe_us /. 1000. /. float_of_int (max 1 passes))
