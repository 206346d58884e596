(* Workload [campaign]: the sweep's size-6 seed range through
   [Harness.Campaign.run] at jobs = 2 with the default lk, cat and c11
   columns, each campaign in a fresh directory, repeated until the run's
   time is up.  Same generator and checkers as [sweep], behind fork,
   supervision, manifest journalling and mining.

   Answer key: no native-vs-cat disagreement pattern, no quarantined
   shard, and a byte-identical mined report from every campaign of the
   run. *)

open Common
module C = Harness.Campaign
module E = Engines

let jobs = 2
let shard_size = 1024

let config ~dir (lo, hi) =
  {
    C.default with
    C.dir;
    size = W_sweep.size;
    seed_lo = lo;
    seed_hi = hi;
    shard_size;
    jobs;
  }

let counter = ref 0

(* One campaign in a fresh directory: its wall time, mined report and
   reloaded manifest. *)
let campaign range =
  incr counter;
  let dir = Filename.concat work_dir (Printf.sprintf "c%d" !counter) in
  let rep, wall =
    time (fun () ->
        match C.run (config ~dir range) with
        | Ok rep -> rep
        | Error e -> die "campaign: %s" e)
  in
  let m =
    match Harness.Manifest.load (C.manifest_path dir) with
    | Ok m -> m
    | Error e -> die "campaign manifest: %s" e
  in
  rm_rf dir;
  (rep, wall, m)

let summaries m =
  List.filter_map
    (fun (s : Harness.Manifest.shard) ->
      match s.state with Harness.Manifest.Done sum -> Some sum | _ -> None)
    (Harness.Manifest.shards m)

(* Mean per-test check time of each shard, ms, in shard order: the
   finest verdict timing a campaign keeps once its shard journals are
   compacted. *)
let shard_test_ms m =
  List.filter_map
    (fun (s : Harness.Manifest.summary) ->
      if s.n_tests = 0 then None
      else Some (1000. *. s.time_s /. float_of_int s.n_tests))
    (summaries m)

(* Each shard's fastest campaign. *)
let shard_ms runs = best_per_item (List.map (fun (_, _, m) -> shard_test_ms m) runs)

let judge tally ~first (rep : C.report) =
  let json = C.report_to_json rep in
  let native_vs_cat =
    List.fold_left
      (fun n (p : C.pattern) -> if p.kind = "native-vs-cat" then n + p.count else n)
      0 rep.patterns
  in
  (* every realised test's lk and cat verdicts meet in the miner *)
  tally.attempted <- tally.attempted + rep.totals.n_tests;
  tally.failed <- tally.failed + native_vs_cat;
  if native_vs_cat > 0 then
    prerr_endline
      (Printf.sprintf "perfbench: FAILED: campaign: %d native-vs-cat disagreements"
         native_vs_cat);
  attempt tally (rep.totals.n_quarantined = 0) "campaign: %d quarantined shards"
    rep.totals.n_quarantined;
  match !first with
  | None -> first := Some json
  | Some j -> attempt tally (j = json) "campaign: mined report differs between runs"

let decided_frac (rep : C.report) =
  let n = ref 0 and d = ref 0 in
  List.iter
    (fun (k, c) ->
      match String.split_on_char ':' k with
      | [ _; ("Allow" | "Forbid") ] ->
          n := !n + c;
          d := !d + c
      | [ _; "Unknown" ] -> n := !n + c
      | _ -> ())
    rep.counts;
  ratio (float_of_int !d) (float_of_int !n)

let repeat ~seconds f =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc else go (f () :: acc)
  in
  go []

(* In-process replay of the campaign's per-seed work — generate, then
   lk, cat and c11 on every realised seed, duplicates included, as the
   workers do — traced or not; the traced replay attributes the
   workers' time to layers.  Returns the realised and duplicate
   counts. *)
let replay ~cat ~traced (lo, hi) =
  let realised = ref 0 and seen = Hashtbl.create 4096 and duplicates = ref 0 in
  for s = lo to hi - 1 do
    let gen () = Diygen.test_of_seed ~vocabulary:W_sweep.vocabulary ~size:W_sweep.size s in
    match if traced then Layers.span "diygen.generate" gen else gen () with
    | None -> ()
    | Some t ->
        incr realised;
        if Hashtbl.mem seen t.Litmus.Ast.name then incr duplicates
        else Hashtbl.add seen t.name ();
        ignore (E.check_all ~cat ~traced [ E.Lk; E.Cat; E.C11 ] t)
  done;
  (!realised, !duplicates)

let run (a : args) =
  let r = W_sweep.range a.seed in
  (* set-up: the fixed cost of one campaign — orchestrator start, a
     worker fork, the manifest, the orchestrator's first poll, mining —
     over one shard too small to need a second poll *)
  let setups =
    List.init 9 (fun _ -> snd (time (fun () -> campaign (fst r, fst r + 16))))
  in
  let setup_s = median setups in
  let tally = tally () and first = ref None in
  let runs =
    repeat
      ~seconds:(if a.trace then a.seconds /. 3. else a.seconds)
      (fun () ->
        let ((rep, _, _) as c) = campaign r in
        judge tally ~first rep;
        c)
  in
  let rep, _, _ = List.hd runs in
  let n_tests = rep.totals.n_tests in
  let base_record =
    [
      ("workload", "\"campaign\"");
      ("seed", string_of_int a.seed);
      ("size", string_of_int W_sweep.size);
      ("seeds_walked", string_of_int (snd r - fst r));
      ("seed_range", Printf.sprintf "\"%d..%d\"" (fst r) (snd r));
      ("tests", string_of_int n_tests);
      ("campaigns", string_of_int (List.length runs));
      ("jobs", string_of_int jobs);
    ]
  in
  if not a.trace then begin
    let walls = List.map (fun (_, w, _) -> w) runs in
    record base_record;
    result tally
      (Metrics.end_to_end ~setup_s
         ~tests_per_s:(float_of_int n_tests /. best walls)
         ~p50:(quantile (shard_ms runs) 0.5) ~decided_frac:(decided_frac rep)
         ~peak_rss_mb:(peak_rss_mb ()))
  end
  else begin
    (* harness layer: the median campaign's manifest accounting *)
    let per_run =
      List.map
        (fun (_, wall, m) ->
          let sums = summaries m in
          let busy = sum (List.map (fun (s : Harness.Manifest.summary) -> s.time_s) sums) in
          let _, mine_s = time (fun () -> C.mine m) in
          let shards = Harness.Manifest.shards m in
          let retries =
            List.fold_left (fun n (s : Harness.Manifest.shard) -> n + s.attempts) 0 shards
          in
          (wall, busy, mine_s, retries))
        runs
    in
    let pick f = median (List.map f per_run) in
    let wall = pick (fun (w, _, _, _) -> w)
    and busy = pick (fun (_, b, _, _) -> b)
    and mine_s = pick (fun (_, _, m, _) -> m)
    and retries = List.fold_left (fun n (_, _, _, k) -> n + k) 0 per_run in
    let cat = E.cat_oracle () in
    let _, plain_wall = time (fun () -> replay ~cat ~traced:false r) in
    Obs.set_enabled true;
    let (realised, duplicates), traced_wall =
      time (fun () -> replay ~cat ~traced:true r)
    in
    Obs.set_enabled false;
    E.print_table ~passes:1 ~wall_us:(traced_wall *. 1e6);
    record (base_record @ [ ("replay_candidates", string_of_int !E.candidates) ]);
    let orchestration = wall -. (busy /. float_of_int jobs) -. mine_s in
    result tally
      (Metrics.per_layer ~tally
         (E.layer_metrics ~passes:1
         @ [
             ("verdict_p99_ms", quantile (shard_ms runs) 0.99, "ms");
             ( "diygen.realised_ratio",
               float_of_int realised /. float_of_int (snd r - fst r),
               "ratio" );
             ( "diygen.dup_ratio",
               ratio (float_of_int duplicates) (float_of_int realised),
               "ratio" );
             ("campaign.shard_busy_s", busy, "s");
             ("campaign.worker_util", busy /. (wall *. float_of_int jobs), "ratio");
             ("campaign.orchestration_s", orchestration, "s");
             ("campaign.mine_ms", mine_s *. 1000., "ms");
             ("campaign.retries", float_of_int retries, "count");
             ("campaign.quarantined", float_of_int rep.totals.n_quarantined, "count");
             ("trace.coverage", 1. -. (orchestration /. wall), "ratio");
             ( "trace.overhead_ratio",
               ((traced_wall *. 1e6) -. !E.probe_us) /. 1e6 /. plain_wall,
               "ratio" );
           ]))
  end
