(* The metric sets of BENCHMARK.json, in its order.  Every run reports
   every metric of its set: the untraced run all end-to-end metrics,
   the traced run all per-layer ones (a layer a workload does not
   exercise reads 0).

   The end-to-end set holds the metrics steady enough on shared
   hardware to carry a bound.  Tail latencies and the serve rate ladder
   move by more than any usable bound from run to run there, so they
   are reported with the per-layer set, unbounded: [verdict_p99_ms] on
   every workload, the serve layer's [latency_*] and [max_rps] from the
   serve traffic in corpus's traced run. *)
let end_to_end ~setup_s ~tests_per_s ~p50 ~decided_frac ~peak_rss_mb :
    Common.metric list =
  [
    ("setup_s", setup_s, "s");
    ("tests_per_s", tests_per_s, "tests/s");
    ("verdict_p50_ms", p50, "ms");
    ("decided_frac", decided_frac, "ratio");
    ("peak_rss_mb", peak_rss_mb, "MiB");
  ]

let per_layer_names =
  [
    ("verdict_p99_ms", "ms");
    ("litmus.parse_ms", "ms");
    ("diygen.generate_ms", "ms");
    ("diygen.realised_ratio", "ratio");
    ("diygen.dup_ratio", "ratio");
    ("exec.sem_ms", "ms");
    ("exec.enumerate_ms", "ms");
    ("exec.candidates", "count");
    ("exec.prefilter_ms", "ms");
    ("exec.prefilter_hit_ratio", "ratio");
    ("lkmm.self_ms", "ms");
    ("lkmm.plane_occupancy", "planes");
    ("lkmm.early_exit_ratio", "ratio");
    ("rel.words", "count");
    ("cat.self_ms", "ms");
    ("cat.prefix_cache_hit_ratio", "ratio");
    ("models.c11_self_ms", "ms");
    ("sat.self_ms", "ms");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.fallbacks", "count");
    ("campaign.shard_busy_s", "s");
    ("campaign.worker_util", "ratio");
    ("campaign.orchestration_s", "s");
    ("campaign.mine_ms", "ms");
    ("campaign.retries", "count");
    ("campaign.quarantined", "count");
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_p99_ms", "ms");
    ("serve.daemon_p99_ms", "ms");
    ("serve.transport_p99_ms", "ms");
    ("serve.vcache_hit_ratio", "ratio");
    ("serve.overloaded", "count");
    ("serve.replacements", "count");
    ("latency_p50_ms.low", "ms");
    ("latency_p99_ms.low", "ms");
    ("latency_p50_ms.high", "ms");
    ("latency_p99_ms.high", "ms");
    ("max_rps", "req/s");
    ("client.lag_p99_ms", "ms");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("failed_frac", "ratio");
  ]

(* The full per-layer set in canonical order, from the values a workload
   measured; [failed_frac] comes from the run's tally. *)
let per_layer ~(tally : Common.tally) (measured : Common.metric list) :
    Common.metric list =
  let value name =
    if name = "failed_frac" then
      Common.ratio (float_of_int tally.failed) (float_of_int tally.attempted)
    else
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some (_, v, _) -> v
      | None -> 0.
  in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n per_layer_names) then
        Common.die "internal: unlisted per-layer metric %s" n)
    measured;
  List.map (fun (name, unit) -> (name, value name, unit)) per_layer_names
