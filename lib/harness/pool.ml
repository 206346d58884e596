(* Process-isolated parallel checking (robustness layer).

   {!Runner.run_item}'s fault barrier is cooperative: it catches
   exceptions and budget trips, but a segfault, a stack overflow in an
   un-instrumented path, a runaway allocation or a genuine hang is
   beyond it.  The pool gives every item its own process, a policy
   over {!Supervisor} (which forks, watches, reaps and classifies):

   - one worker per item, up to [jobs] concurrently, each running the
     ordinary {!Runner.run_item} and marshalling its entry back, so one
     dying worker cannot take the battery down;
   - the watchdog deadline is twice the budget's timeout plus a second,
     classified [Gave_up Timed_out]; the heap cap turns runaway
     allocation into [Gave_up Heap_exceeded] before the kernel's OOM
     killer gets involved;
   - a worker that dies on a signal is classified [Err {cls = Crash
     signal}] and retried once after [backoff] (the ladder's strike
     1), separating flaky crashes (the retry's entry is marked
     [retried]) from deterministic ones (strike 2 is final);
   - with a journal, every completed entry is appended and flushed as
     it arrives, and a previous journal can be resumed: already-
     journalled items are recycled without re-running.

   Report entries come back in item order whatever the completion
   order, so [-j N] output is deterministic modulo timings. *)

type config = {
  jobs : int; (* concurrent workers (>= 1) *)
  limits : Exec.Budget.limits; (* per-item cooperative budget *)
  mem_limit_mb : int option; (* hard heap cap enforced in the worker *)
  backoff : float; (* seconds before a crashed item's retry *)
  lint : bool;
  flight_dir : string option;
      (* arm the crash flight recorder in every forked worker: each
         checkpoints its obs ring to <dir>/flight-<pid>.jsonl, so the
         watchdog's SIGKILL (which forfeits the result-pipe dump) still
         leaves a post-mortem trace of the item that died *)
}

let default =
  {
    jobs = 2;
    limits = Exec.Budget.default;
    mem_limit_mb = None;
    backoff = 0.05;
    lint = true;
    flight_dir = None;
  }

(* The hard watchdog: twice the cooperative timeout plus a second,
   unlimited if the budget has no timeout. *)
let watchdog cfg =
  Option.map (fun t -> (2. *. t) +. 1.) cfg.limits.Exec.Budget.timeout

(* ------------------------------------------------------------------ *)
(* The worker side                                                     *)
(* ------------------------------------------------------------------ *)

(* Runs in the forked child ({!Supervisor.spawn}): compute the entry
   and ship an {!Obs.dump} alongside it, which the parent merges
   tagged with the worker's pid.  A worker the watchdog kills never
   returns, so its partial trace is lost with it — the entry the parent
   synthesises still appears in the report, just without spans.  With
   a flight recorder armed, the item's id is on disk before any work
   happens, so a SIGKILL mid-item always has a post-mortem. *)
let worker_main ~worker (item : Runner.item) () =
  let entry : Report.entry =
    if Obs.flight_active () then
      Obs.with_span ~item:item.Runner.id "pool.item" (fun () ->
          Obs.flight_checkpoint ~reason:"item-start" ();
          worker item)
    else worker item
  in
  (entry, if Obs.enabled () then Some (Obs.dump ()) else None)

(* ------------------------------------------------------------------ *)
(* The parent side                                                     *)
(* ------------------------------------------------------------------ *)

type job = {
  item : Runner.item;
  attempt : int; (* 0 = first run, 1 = the crash retry *)
  not_before : float; (* crash-retry backoff gate *)
}

type running = {
  child : (Report.entry * Obs.dump option) Supervisor.child;
  job : job;
  started : float;
}

(* A reaped worker's outcome as a final entry, or a crash the ladder
   retries after a delay. *)
let entry_of_outcome cfg r outcome =
  let mk status =
    {
      Report.item_id = r.job.item.Runner.id;
      status;
      time = Unix.gettimeofday () -. r.started;
      n_candidates = 0;
      retried = r.job.attempt > 0;
      result = None;
    }
  in
  let internal msg =
    `Final (mk (Report.Err { Report.cls = Report.Internal; msg; line = None }))
  in
  match (outcome : _ Supervisor.outcome) with
  | Value (entry, dump) ->
      if Obs.enabled () then
        Option.iter (Obs.merge ~tid:(Supervisor.pid r.child)) dump;
      `Final { entry with Report.retried = r.job.attempt > 0 }
  | Exit n -> internal (Printf.sprintf "worker exited with code %d" n)
  | Truncated -> internal "worker result truncated"
  | Heap_cap ->
      let mb = Option.value ~default:0 cfg.mem_limit_mb in
      `Final (mk (Report.Gave_up (Exec.Budget.Heap_exceeded mb)))
  | Deadline ->
      (* killed for overrunning the hard deadline: that is budget
         exhaustion, not a crash *)
      let wd = Option.value ~default:0. (watchdog cfg) in
      `Final (mk (Report.Gave_up (Exec.Budget.Timed_out wd)))
  | Signal s -> (
      match Supervisor.decide ~backoff:cfg.backoff (r.job.attempt + 1) with
      | Supervisor.Retry delay -> `Retry delay
      | Supervisor.Give_up ->
          `Final
            (mk
               (Report.Err
                  {
                    Report.cls = Report.Crash s;
                    msg = "worker killed by " ^ Exec.Check.signal_name s;
                    line = None;
                  })))

(* [run_queue] dispatches and waits until every item has produced
   exactly one final entry; crash retries re-enter the queue behind
   their backoff gate.

   [drain_sig] is the graceful-shutdown latch (set by the SIGTERM/SIGINT
   handlers that {!run} installs): once set, no further item is
   dispatched, but every in-flight worker is seen through to its entry
   — reaped, classified, journalled — before the loop returns.  The
   watchdogs stay armed, so draining cannot hang on a wedged worker. *)
let run_queue cfg ~worker ~on_entry ~(drain_sig : int option ref) items =
  let pending =
    ref (List.map (fun item -> { item; attempt = 0; not_before = 0. }) items)
  in
  let running = ref [] in
  let finished = ref [] in
  let n_final = ref 0 in
  let total = List.length items in
  let flight = Option.map (fun dir -> (dir, None)) cfg.flight_dir in
  while
    (!drain_sig = None && !n_final < total) || !running <> []
  do
    if !drain_sig = None then begin
      let now = Unix.gettimeofday () in
      let free = ref (cfg.jobs - List.length !running) in
      pending :=
        List.filter
          (fun j ->
            if !free > 0 && j.not_before <= now then begin
              decr free;
              let child =
                Supervisor.spawn ?timeout:(watchdog cfg)
                  ?mem_limit_mb:cfg.mem_limit_mb ?flight
                  (worker_main ~worker j.item)
              in
              running := { child; job = j; started = now } :: !running;
              false
            end
            else true)
          !pending
    end;
    (* wake for the earliest backoff gate, unless draining *)
    let now = Unix.gettimeofday () in
    let until =
      List.fold_left
        (fun acc j ->
          if !drain_sig = None && j.not_before > now then
            Some (Float.min j.not_before (Option.value ~default:infinity acc))
          else acc)
        None !pending
    in
    List.iter
      (fun (child, outcome) ->
        let r = List.find (fun r -> r.child == child) !running in
        running := List.filter (fun r' -> r' != r) !running;
        match entry_of_outcome cfg r outcome with
        | `Retry delay ->
            pending :=
              {
                r.job with
                attempt = r.job.attempt + 1;
                not_before = Unix.gettimeofday () +. delay;
              }
              :: !pending
        | `Final entry ->
            incr n_final;
            on_entry entry;
            finished := entry :: !finished)
      (Supervisor.wait ?until (List.map (fun r -> r.child) !running))
  done;
  !finished

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* [run ?config ?worker ?journal ?resume ?oracle items]:

   - [worker] overrides the per-item computation (tests inject crashing
     workers); the default is {!Runner.run_item} under the config's
     budget, with the heap cap folded into the budget so cooperative
     paths classify allocation blowups before the Gc alarm must;
   - [oracle]/[backend] select the checking oracle and its engine
     ({!Exec.Oracle.run}; defaults: {!Lkmm.oracle} on its batched
     engine);
   - [journal] appends each completed entry to a JSONL journal;
   - [resume] recycles entries from an existing journal and runs only
     the missing items (pass the same path as [journal] to extend it in
     place).

   SIGTERM/SIGINT during the run trigger a graceful drain: dispatching
   stops, in-flight workers are reaped and their entries journalled,
   the journal is flushed and closed, and the process exits with the
   conventional 128+signal code (143 for SIGTERM, 130 for SIGINT) —
   so an interrupted [--journal] run is always resumable with no item
   half-recorded.  The previous handlers are restored on a normal
   return, so library callers outside a run keep their own behavior. *)
let run ?(config = default) ?worker ?journal ?resume ?explain ?backend
    ?(oracle = Lkmm.oracle) (items : Runner.item list) =
  let t0 = Unix.gettimeofday () in
  let config = { config with jobs = max 1 config.jobs } in
  let limits =
    match config.mem_limit_mb with
    | Some mb -> { config.limits with Exec.Budget.max_heap_mb = Some mb }
    | None -> config.limits
  in
  let config = { config with limits } in
  let worker =
    match worker with
    | Some w -> w
    | None ->
        fun it ->
          Runner.run_item ~limits ~lint:config.lint ?explain ?backend
            ~oracle it
  in
  let recycled =
    match resume with
    | Some path -> fst (Journal.partition path items)
    | None -> []
  in
  let recycled_ids = Hashtbl.create 64 in
  List.iter
    (fun (e : Report.entry) -> Hashtbl.replace recycled_ids e.Report.item_id ())
    recycled;
  let jw = Option.map Journal.open_writer journal in
  let on_entry e = Option.iter (fun w -> Journal.write w e) jw in
  let queue =
    List.filter
      (fun (i : Runner.item) -> not (Hashtbl.mem recycled_ids i.Runner.id))
      items
  in
  (* graceful drain on SIGTERM/SIGINT: the handler only sets the latch;
     the run loop does the draining at a safe point *)
  let drain = ref None in
  let install s =
    try Some (Sys.signal s (Sys.Signal_handle (fun s -> drain := Some s)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_term = install Sys.sigterm and prev_int = install Sys.sigint in
  let restore s prev =
    match prev with Some b -> (try Sys.set_signal s b with _ -> ()) | None -> ()
  in
  let fresh =
    Obs.with_span "pool" (fun () ->
        run_queue config ~worker ~on_entry ~drain_sig:drain queue)
  in
  Option.iter Journal.close jw;
  (match !drain with
  | Some s ->
      (* every in-flight worker was reaped and journalled; exit with the
         conventional interrupted-by-signal code so callers and scripts
         can tell a drained run from a completed one.  (The latch holds
         OCaml's portable signal number, which is negative — map it back
         to the system convention by hand.) *)
      let sysnum = if s = Sys.sigint then 2 else 15 in
      Printf.eprintf
        "pool: %s received — drained %d finished item(s), journal %s; \
         exiting %d\n%!"
        (Exec.Check.signal_name s) (List.length fresh)
        (match journal with Some p -> "flushed to " ^ p | None -> "not kept")
        (128 + sysnum);
      Stdlib.exit (128 + sysnum)
  | None -> ());
  restore Sys.sigterm prev_term;
  restore Sys.sigint prev_int;
  (* reassemble in item order: recycled entries keep their item's slot *)
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (e : Report.entry) -> Hashtbl.replace by_id e.Report.item_id e)
    (recycled @ fresh);
  let entries =
    List.filter_map
      (fun (i : Runner.item) -> Hashtbl.find_opt by_id i.Runner.id)
      items
  in
  Report.summarise ~wall:(Unix.gettimeofday () -. t0) entries
