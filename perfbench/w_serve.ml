(* The serve traffic, measured inside the [corpus] workload's traced
   run: the checking daemon ([Harness.Serve.run]) in a forked child with
   two worker domains, driven open-loop from this process over one
   socket — a sender on the main domain, a receiver on a second —
   through two operating points and a ladder of offered rates.  Its
   figures move too much between runs on shared hardware to carry a
   bound, so they are per-layer metrics only.

   The request mix is a seeded draw: half golden-corpus tests, which
   repeat and so hit the verdict cache after first sight, and half
   fresh size-6 diygen tests, each sent once, which miss and insert.
   The fresh pool is the distinct tests of the sweep's seed range,
   renamed per use when a run outgrows it (a new name is a new source
   text, hence a new cache key, with an unchanged verdict).

   Latency is timed from each request's scheduled send, so a stall
   charges every request queued behind it.  A step whose sender fell
   behind its schedule, or left a growing queue in the daemon (read
   through the metrics op as the step ends), does not count as meeting
   the latency limit.

   Answer key: every verdict against the corpus golden, or against the
   cat-LK verdict of the fresh test computed in-process. *)

open Common
module S = Harness.Serve
module Pr = Harness.Proto
module J = Harness.Journal.Json

let workers = 2

(* Offered rates, requests/s.  [low] and [high] are the reported
   operating points; the ladder, geometric from [ladder_base], finds
   max_rps and stops after two steps in a row miss the limit.  Step
   lengths are shares of the time [measure] is given. *)
let low_rps = 300.
let high_rps = 1500.
let ladder_base = 1500.
let ladder_factor = 1.15
let ladder_max = 20
let low_share = 0.25
let high_share = 0.15
let rung_share = 0.03

(* p99 latency limit for a ladder step to count as sustained *)
let limit_ms = 50.

(* a sender more than this late at p99 invalidates the step *)
let lag_limit_ms = limit_ms /. 2.

let ladder_rates = List.init ladder_max (fun k -> ladder_base *. (ladder_factor ** float_of_int k))

type req = { text : string; key : string; name : string }

(* ------------------------------------------------------------------ *)
(* Inputs and answer key                                               *)
(* ------------------------------------------------------------------ *)

(* The fresh tests with their cat-LK verdicts, computed in-process: the
   daemon checks with native LK and never sees the key. *)
let fresh_pool seed =
  let cat = Engines.cat_oracle () in
  let lo, hi = W_sweep.range seed in
  let seen = Hashtbl.create 4096 in
  Diygen.generate_range ~vocabulary:W_sweep.vocabulary ~size:W_sweep.size lo hi
  |> List.filter_map (fun (_, (t : Litmus.Ast.t)) ->
         if Hashtbl.mem seen t.name then None
         else begin
           Hashtbl.add seen t.name ();
           let v = (Engines.run ~cat Engines.Cat t).Exec.Check.verdict in
           (* Unknown under the cat budget: no key, not sent *)
           if decided v then Some (t, verdict_name v) else None
         end)
  |> Array.of_list

(* The request sequence: a seeded half/half draw, corpus tests uniform
   with repetition, fresh tests each used once — the k-th reuse of the
   fresh pool renamed with a [+r<k>] suffix.  Texts are rendered before
   the load starts; a rename only swaps the first line. *)
let requests ~corpus seed n =
  let rng = Random.State.make [| 0x7365; seed |] in
  let fresh =
    Array.map
      (fun ((t : Litmus.Ast.t), v) ->
        let text = Litmus.to_string t in
        let nl = String.index text '\n' in
        (t.name, String.sub text nl (String.length text - nl), v))
      (fresh_pool seed)
  in
  let nf = Array.length fresh in
  let next = ref 0 in
  Array.init n (fun _ ->
      if Random.State.bool rng then
        corpus.(Random.State.int rng (Array.length corpus))
      else begin
        let i = !next in
        incr next;
        let name, body, v = fresh.(i mod nf) in
        let name = if i < nf then name else Printf.sprintf "%s+r%d" name (i / nf) in
        { text = "C " ^ name ^ body; key = v; name }
      end)

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

let socket = Filename.concat work_dir "serve.sock"

let config =
  {
    S.default with
    S.socket;
    workers;
    queue_bound = 100_000;
    default_timeout = 120.;
  }

(* The live daemon, killed at exit if the run dies before stopping it. *)
let daemon = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !daemon)

let start () =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (* the daemon's chatter must not reach the result stream *)
      Unix.dup2 Unix.stderr Unix.stdout;
      let code = try S.run ~config () with _ -> 125 in
      Unix._exit code
  | pid ->
      daemon := Some pid;
      pid

let connect () =
  let stop = now () +. 30. in
  let rec go () =
    match S.Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
        if now () > stop then die "serve: daemon did not come up";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let start_and_ping () =
  let pid = start () in
  let c = connect () in
  (match S.Client.ping c with
  | Ok _ -> ()
  | Error e -> die "serve: ping: %s" e);
  (pid, c)

(* Drain the daemon; the receiver domain [rx] ends when the exiting
   daemon closes the socket. *)
let stop pid c rx =
  S.Client.send c (Pr.simple_line ~id:"shutdown" "shutdown");
  Domain.join rx;
  S.Client.close c;
  ignore (Unix.waitpid [] pid);
  daemon := None

(* ------------------------------------------------------------------ *)
(* Open-loop load                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-request outcome slots, written by the receiver domain before it
   bumps [received]. *)
type slots = {
  recv_at : float array;
  verdict : string array;
  cls : Pr.cls option array;
  received : int Atomic.t;
  metrics : J.t option Atomic.t;  (** the latest metrics response *)
}

let receiver c slots () =
  let rec loop () =
    match S.Client.recv c with
    | Error _ | (exception Sys_error _) -> ()  (* closed at shutdown *)
    | Ok r ->
        let at = now () in
        (match if r.Pr.rsp_id = "" then ' ' else r.Pr.rsp_id.[0] with
        | 'q' ->
            let i = int_of_string (String.sub r.Pr.rsp_id 1 (String.length r.Pr.rsp_id - 1)) in
            slots.recv_at.(i) <- at;
            slots.verdict.(i) <- Option.value ~default:"" r.Pr.rsp_verdict;
            slots.cls.(i) <- Some r.Pr.rsp_cls;
            Atomic.incr slots.received
        | 'm' -> Atomic.set slots.metrics (J.mem "metrics" r.Pr.rsp_json)
        | _ -> ());
        loop ()
  in
  loop ()

let spin_until what pred =
  let give_up = now () +. 60. in
  while not (pred ()) do
    if now () > give_up then die "serve: no %s from the daemon after 60 s" what;
    Unix.sleepf 0.0005
  done

type step_result = {
  rate : float;
  n : int;
  lat_ms : float array;  (** sorted, from scheduled send *)
  lag_ms : float array;  (** sorted sender lateness *)
  lag_p99_ms : float;
  queue_depth : int;  (** daemon queue as the step's schedule ended *)
  achieved : float;  (** responses per second over the step *)
}

let metrics_ctr = ref 0

let fetch_metrics c slots =
  incr metrics_ctr;
  Atomic.set slots.metrics None;
  S.Client.send c (Pr.simple_line ~id:(Printf.sprintf "m%d" !metrics_ctr) "metrics");
  spin_until "metrics response" (fun () -> Atomic.get slots.metrics <> None);
  Option.get (Atomic.get slots.metrics)

let num_at path j =
  let rec go j = function
    | [] -> J.num j
    | k :: rest -> Option.bind (J.mem k j) (fun j -> go j rest)
  in
  Option.value ~default:nan (go j path)

(* Send requests [first, first+n) at [rate] on schedule, then wait for
   their responses. *)
let step c slots reqs ~first ~n ~rate =
  let sched = Array.make n 0. and lag = Array.make n 0. in
  let t0 = now () +. 0.002 in
  for k = 0 to n - 1 do
    let due = t0 +. (float_of_int k /. rate) in
    sched.(k) <- due;
    let d = due -. now () in
    if d > 0. then Unix.sleepf d;
    let at = now () in
    lag.(k) <- Float.max 0. (at -. due);
    let r = reqs.(first + k) in
    S.Client.send c (Pr.check_line ~id:(Printf.sprintf "q%d" (first + k)) r.text)
  done;
  let m = fetch_metrics c slots in
  spin_until "check responses" (fun () -> Atomic.get slots.received >= first + n);
  let lat =
    Array.init n (fun k -> 1000. *. (slots.recv_at.(first + k) -. sched.(k)))
  in
  Array.sort compare lat;
  let last = Array.fold_left Float.max 0. (Array.sub slots.recv_at first n) in
  let lag_ms = Array.map (fun x -> 1000. *. x) lag in
  Array.sort compare lag_ms;
  {
    rate;
    n;
    lat_ms = lat;
    lag_ms;
    lag_p99_ms = quantile_sorted lag_ms 0.99;
    queue_depth = int_of_float (num_at [ "queue_depth" ] m);
    achieved = float_of_int n /. (last -. t0);
  }

let valid s = s.lag_p99_ms <= lag_limit_ms

let sustained s =
  valid s
  && quantile_sorted s.lat_ms 0.99 <= limit_ms
  && float_of_int s.queue_depth <= 0.05 *. float_of_int s.n

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* The daemon's own view at the two operating points, from the metrics
   snapshot taken before the ladder, against the client's view of the
   same requests. *)
let daemon_metrics m ~client_p99_ms =
  let ms path = num_at path m /. 1000. in
  let hits = num_at [ "cache"; "hits" ] m and misses = num_at [ "cache"; "misses" ] m in
  [
    ("serve.queue_wait_p50_ms", ms [ "queue_wait_us"; "p50" ], "ms");
    ("serve.queue_wait_p99_ms", ms [ "queue_wait_us"; "p99" ], "ms");
    ("serve.daemon_p99_ms", ms [ "latency_us"; "p99" ], "ms");
    ("serve.transport_p99_ms", client_p99_ms -. ms [ "latency_us"; "p99" ], "ms");
    ("serve.vcache_hit_ratio", ratio hits (hits +. misses), "ratio");
    ("serve.overloaded", num_at [ "served"; "overloaded" ] m, "count");
    ("serve.replacements", num_at [ "replacements" ] m, "count");
  ]

(* One measurement of the service over [seconds], its repeating half
   drawn from [corpus] (name, source, golden LK verdict): every response
   judged into [tally]; returns the serve-layer metrics and the
   run-record fields.  Forks the daemon and then spawns a domain, so the
   caller must not fork afterwards. *)
let measure tally ~corpus ~seed ~seconds =
  let low_s = low_share *. seconds and high_s = high_share *. seconds
  and rung_s = rung_share *. seconds in
  let n_of rate secs = max 1 (int_of_float (rate *. secs)) in
  let total =
    n_of low_rps low_s + n_of high_rps high_s
    + List.fold_left (fun n r -> n + n_of r rung_s) 0 ladder_rates
  in
  let pid, c = start_and_ping () in
  let corpus =
    Array.of_list
      (List.map (fun (name, text, key) -> { text; key; name }) corpus)
  in
  let reqs = requests ~corpus seed total in
  let slots =
    {
      recv_at = Array.make total 0.;
      verdict = Array.make total "";
      cls = Array.make total None;
      received = Atomic.make 0;
      metrics = Atomic.make None;
    }
  in
  let rx = Domain.spawn (receiver c slots) in
  let sent = ref 0 in
  let run_step rate secs =
    let n = n_of rate secs in
    let s = step c slots reqs ~first:!sent ~n ~rate in
    sent := !sent + n;
    s
  in
  let s_low = run_step low_rps low_s in
  let s_high = run_step high_rps high_s in
  (* the daemon's view of the two operating points, before the ladder
     drives it past saturation *)
  let m = fetch_metrics c slots in
  let rec climb misses acc = function
    | [] -> List.rev acc
    | _ when misses >= 2 -> List.rev acc
    | r :: rest ->
        let s = run_step r rung_s in
        climb (if sustained s then 0 else misses + 1) (s :: acc) rest
  in
  let ladder_steps = climb 0 [] ladder_rates in
  stop pid c rx;
  (* answer key *)
  for i = 0 to !sent - 1 do
    let r = reqs.(i) and v = slots.verdict.(i) in
    let ok =
      match slots.cls.(i) with
      | Some (Pr.Ok_ | Pr.Fail) -> v = r.key
      | Some Pr.Unknown -> true
      | Some (Pr.Error | Pr.Overloaded | Pr.Quarantined) | None -> false
    in
    attempt tally ok "serve %s: %s (%s), key %s" r.name v
      (match slots.cls.(i) with Some k -> Pr.cls_name k | None -> "no answer")
      r.key
  done;
  let max_rps =
    List.fold_left
      (fun best s -> if sustained s then Float.max best s.rate else best)
      0. ladder_steps
  in
  Printf.eprintf "perfbench: serve steps (limit p99 <= %.0f ms)\n" limit_ms;
  List.iter
    (fun s ->
      Printf.eprintf
        "  %6.0f req/s  p50 %7.2f ms  p99 %8.2f ms  lag p99 %6.2f ms  queue %5d  %s\n"
        s.rate (quantile_sorted s.lat_ms 0.5) (quantile_sorted s.lat_ms 0.99)
        s.lag_p99_ms s.queue_depth
        (if sustained s then "ok" else if valid s then "missed" else "invalid"))
    (s_low :: s_high :: ladder_steps);
  flush stderr;
  let pct s q = quantile_sorted s.lat_ms q in
  (* the operating points' requests, pooled *)
  let pooled f =
    let a = Array.concat [ f s_low; f s_high ] in
    Array.sort compare a;
    a
  in
  let lat = pooled (fun s -> s.lat_ms) and lag = pooled (fun s -> s.lag_ms) in
  let record =
    [
      ("serve_requests", string_of_int !sent);
      ("serve_workers", string_of_int workers);
      ("serve_low_rps", json_num low_rps);
      ("serve_high_rps", json_num high_rps);
      (* an operating point whose sender fell behind: its latencies
         include the sender's lateness *)
      ("serve_low_valid", string_of_bool (valid s_low));
      ("serve_high_valid", string_of_bool (valid s_high));
      ( "serve_ladder_rps",
        "["
        ^ String.concat ", " (List.map (fun s -> Printf.sprintf "%.0f" s.rate) ladder_steps)
        ^ "]" );
    ]
  in
  ( daemon_metrics m ~client_p99_ms:(quantile_sorted lat 0.99)
    @ [
        ("latency_p50_ms.low", pct s_low 0.5, "ms");
        ("latency_p99_ms.low", pct s_low 0.99, "ms");
        ("latency_p50_ms.high", pct s_high 0.5, "ms");
        ("latency_p99_ms.high", pct s_high 0.99, "ms");
        ("max_rps", max_rps, "req/s");
        ("client.lag_p99_ms", quantile_sorted lag 0.99, "ms");
      ],
    record )
