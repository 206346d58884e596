(* Tests for Harness.Pool: process isolation, watchdog kills, memory
   caps, crash classification, retry/backoff and the crash exit code.

   Crashes are injected through the pool's [worker] override: a worker
   that kills its own process for designated item ids, and otherwise
   defers to the ordinary Runner.run_item.  This exercises the real
   fork/SIGKILL/reap machinery with deterministic failures. *)

module R = Harness.Runner

module Rep = Harness.Report
module P = Harness.Pool
module J = Harness.Journal
module B = Exec.Budget

let limits = B.limits ~timeout:5.0 ~max_candidates:50_000 ()
let oracle = Lkmm.oracle
let normal_worker = R.run_item ~limits ~oracle

let src name = (Harness.Battery.find name).Harness.Battery.source
let item id source expected = { R.id; source = `Text source; expected }

(* A worker that misbehaves on cue.  Runs in the forked child, so
   killing the process or spinning forever is contained by the pool. *)
let misbehaving (it : R.item) =
  match it.R.id with
  | "segv" ->
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
      assert false
  | "loop" ->
      (* an allocation-free infinite loop: no budget tick, no Gc alarm;
         only the watchdog can stop it *)
      let rec spin () : Rep.entry = spin () in
      spin ()
  | "oom" ->
      let rec eat acc : Rep.entry = eat (Bytes.create (1 lsl 20) :: acc) in
      eat []
  | _ -> normal_worker it

let config jobs =
  { P.default with P.jobs; limits; backoff = 0.01 }

let find_entry report id =
  List.find (fun (e : Rep.entry) -> e.Rep.item_id = id) report.Rep.entries

let test_crash_contained () =
  let report =
    P.run
      ~config:(config 2)
      ~worker:misbehaving ~oracle
      [
        item "ok1" (src "SB") (Some Exec.Check.Allow);
        item "segv" (src "SB") None;
        item "ok2" (src "MP+wmb+rmb") (Some Exec.Check.Forbid);
      ]
  in
  Alcotest.(check int) "both healthy items passed" 2 report.Rep.n_pass;
  Alcotest.(check int) "one crash" 1 report.Rep.n_crash;
  Alcotest.(check int) "no plain errors" 0 report.Rep.n_error;
  (match (find_entry report "segv").Rep.status with
  | Rep.Err { cls = Rep.Crash s; _ } ->
      Alcotest.(check int) "signal recorded" Sys.sigsegv s
  | s -> Alcotest.failf "expected crash entry: %a" Rep.pp_status s);
  Alcotest.(check bool) "deterministic crash was retried" true
    (find_entry report "segv").Rep.retried;
  Alcotest.(check int) "crash exit code" 4 (Rep.exit_code report)

let test_order_preserved () =
  let ids = [ "d"; "c"; "b"; "a" ] in
  let report =
    P.run ~config:(config 4) ~oracle
      (List.map (fun id -> item id (src "SB") None) ids)
  in
  Alcotest.(check (list string)) "entries in item order" ids
    (List.map (fun (e : Rep.entry) -> e.Rep.item_id) report.Rep.entries)

let test_watchdog_kills_loop () =
  let cfg =
    { P.default with P.jobs = 2; limits = B.limits ~timeout:0.2 ();
      backoff = 0.01 }
  in
  let t0 = Unix.gettimeofday () in
  let report =
    P.run ~config:cfg ~worker:misbehaving ~oracle
      [ item "loop" (src "SB") None; item "ok" (src "SB") None ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match (find_entry report "loop").Rep.status with
  | Rep.Gave_up (B.Timed_out _) -> ()
  | s -> Alcotest.failf "expected watchdog timeout: %a" Rep.pp_status s);
  Alcotest.(check int) "healthy item passed" 1 report.Rep.n_pass;
  Alcotest.(check int) "budget exit code" 3 (Rep.exit_code report);
  (* watchdog = 2 * 0.2 + 1 = 1.4s; well under the 5s this would hang
     without the watchdog (the loop never returns) *)
  Alcotest.(check bool) "killed promptly" true (wall < 4.0)

let test_mem_cap_contains_oom () =
  let cfg =
    { P.default with P.jobs = 1; limits = B.limits ~timeout:10.0 ();
      mem_limit_mb = Some 32 }
  in
  let report =
    P.run ~config:cfg ~worker:misbehaving ~oracle
      [ item "oom" (src "SB") None; item "ok" (src "SB") None ]
  in
  (match (find_entry report "oom").Rep.status with
  | Rep.Gave_up (B.Heap_exceeded 32) -> ()
  | s -> Alcotest.failf "expected heap cap: %a" Rep.pp_status s);
  Alcotest.(check int) "healthy item passed" 1 report.Rep.n_pass

(* One run whose items end every way a forked worker can, each
   classified by the supervisor and mapped to its entry by the pool. *)
let test_every_outcome_classified () =
  let worker (it : R.item) =
    match it.R.id with
    | "exit" -> Unix._exit 7
    | "truncated" ->
        (* exit 0 before the entry reaches the pipe *)
        Unix._exit 0
    | "raise" -> failwith "worker bug"
    | _ -> misbehaving it
  in
  let cfg =
    { P.default with P.jobs = 3; limits = B.limits ~timeout:0.2 ();
      mem_limit_mb = Some 32; backoff = 0.01 }
  in
  let report =
    P.run ~config:cfg ~worker ~oracle
      (List.map
         (fun id -> item id (src "SB") (Some Exec.Check.Allow))
         [ "ok"; "exit"; "segv"; "loop"; "oom"; "truncated"; "raise" ])
  in
  let status id = (find_entry report id).Rep.status in
  let internal id msg =
    match status id with
    | Rep.Err { cls = Rep.Internal; msg = m; _ } ->
        Alcotest.(check string) (id ^ " message") msg m
    | s ->
        Alcotest.failf "%s: expected an internal error: %a" id Rep.pp_status s
  in
  (match status "ok" with
  | Rep.Pass Exec.Check.Allow -> ()
  | s -> Alcotest.failf "ok: expected a value: %a" Rep.pp_status s);
  internal "exit" "worker exited with code 7";
  internal "truncated" "worker result truncated";
  internal "raise"
    (Printf.sprintf "worker exited with code %d"
       Harness.Supervisor.exit_uncaught);
  (match status "segv" with
  | Rep.Err { cls = Rep.Crash s; _ } ->
      Alcotest.(check int) "signal" Sys.sigsegv s
  | s -> Alcotest.failf "segv: expected a crash: %a" Rep.pp_status s);
  (match status "loop" with
  | Rep.Gave_up (B.Timed_out t) ->
      Alcotest.(check (float 1e-9)) "watchdog" 1.4 t
  | s -> Alcotest.failf "loop: expected a deadline kill: %a" Rep.pp_status s);
  (match status "oom" with
  | Rep.Gave_up (B.Heap_exceeded 32) -> ()
  | s -> Alcotest.failf "oom: expected the heap cap: %a" Rep.pp_status s);
  (* only the crash goes round the retry ladder *)
  Alcotest.(check (list string)) "retried" [ "segv" ]
    (List.filter_map
       (fun (e : Rep.entry) ->
         if e.Rep.retried then Some e.Rep.item_id else None)
       report.Rep.entries)

(* A flaky crash: the first attempt dies, the retry succeeds.  The
   cross-attempt state lives in the filesystem because each attempt is
   a fresh process. *)
let test_flaky_crash_retried () =
  let marker = Filename.temp_file "pool_flaky" ".marker" in
  Sys.remove marker;
  let flaky (it : R.item) =
    match it.R.id with
    | "flaky" ->
        if not (Sys.file_exists marker) then begin
          let oc = open_out marker in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigsegv
        end;
        normal_worker it
    | _ -> normal_worker it
  in
  let report =
    P.run ~config:(config 1) ~worker:flaky ~oracle
      [ item "flaky" (src "SB") (Some Exec.Check.Allow) ]
  in
  if Sys.file_exists marker then Sys.remove marker;
  let e = find_entry report "flaky" in
  (match e.Rep.status with
  | Rep.Pass _ -> ()
  | s -> Alcotest.failf "expected pass after retry: %a" Rep.pp_status s);
  Alcotest.(check bool) "marked as retried" true e.Rep.retried;
  Alcotest.(check int) "no crash in the final report" 0 report.Rep.n_crash;
  Alcotest.(check int) "clean exit code" 0 (Rep.exit_code report)

let test_crash_beats_error_exit_code () =
  let report =
    P.run ~config:(config 2) ~worker:misbehaving ~oracle
      [
        item "segv" (src "SB") None;
        item "parse-err" "C broken\n{ x=0;\nP0(int *x" None;
        item "fail" (src "SB") (Some Exec.Check.Forbid);
      ]
  in
  Alcotest.(check int) "crash counted" 1 report.Rep.n_crash;
  Alcotest.(check int) "error counted" 1 report.Rep.n_error;
  Alcotest.(check int) "fail counted" 1 report.Rep.n_fail;
  Alcotest.(check int) "crash > error > fail" 4 (Rep.exit_code report)

(* The default worker: no injection, real checking in real workers,
   agreeing with the in-process runner on the same items. *)
let test_agrees_with_runner () =
  let items =
    [
      item "SB" (src "SB") (Some Exec.Check.Allow);
      item "MP+wmb+rmb" (src "MP+wmb+rmb") (Some Exec.Check.Forbid);
      item "bad" "garbage input" None;
    ]
  in
  let pooled = P.run ~config:(config 2) ~oracle items in
  let inproc = R.run ~limits items in
  List.iter2
    (fun (a : Rep.entry) (b : Rep.entry) ->
      Alcotest.(check string)
        (a.Rep.item_id ^ " same classified outcome")
        (Harness.Shrink.fingerprint b)
        (Harness.Shrink.fingerprint a))
    pooled.Rep.entries inproc.Rep.entries;
  Alcotest.(check int) "same exit code" (Rep.exit_code inproc)
    (Rep.exit_code pooled)

(* ------------------------------------------------------------------ *)
(* Graceful drain on SIGTERM                                           *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let k = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr k
       done
     with End_of_file -> ());
    close_in ic;
    !k
  end

let wait_for_lines path n deadline =
  let rec go () =
    if count_lines path >= n then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* SIGTERM a -j 2 run mid-corpus: the pool must stop dispatching, reap
   what is in flight, journal it, and exit 143 — leaving a journal a
   resumed run completes from. *)
let test_sigterm_drains_journal () =
  let path = Filename.temp_file "pool_drain" ".jsonl" in
  Sys.remove path;
  let battery =
    List.concat_map
      (fun n -> [ item (n ^ "/SB") (src "SB") (Some Exec.Check.Allow) ])
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let cfg = { P.default with P.jobs = 2; limits; backoff = 0.01 } in
  (* each item sleeps, so SIGTERM lands mid-corpus with items in flight *)
  let slow (it : R.item) =
    Unix.sleepf 0.15;
    normal_worker it
  in
  flush stdout;
  flush stderr;
  let child =
    match Unix.fork () with
    | 0 ->
        (* the drain path calls exit itself; 0 would mean it didn't *)
        (try ignore (P.run ~config:cfg ~worker:slow ~journal:path ~oracle battery)
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let got_two = wait_for_lines path 2 (Unix.gettimeofday () +. 20.) in
  Unix.kill child Sys.sigterm;
  let _, status = Unix.waitpid [] child in
  Alcotest.(check bool) "journal grew before the signal" true got_two;
  (match status with
  | Unix.WEXITED 143 -> ()
  | Unix.WEXITED n -> Alcotest.failf "expected exit 143, got %d" n
  | Unix.WSIGNALED s -> Alcotest.failf "died on signal %d instead of draining" s
  | Unix.WSTOPPED _ -> Alcotest.fail "stopped");
  (* every journalled line is a complete, well-formed entry *)
  let drained = J.load path in
  let n_drained = List.length drained in
  Alcotest.(check bool) "partial but non-empty journal" true
    (n_drained >= 2 && n_drained < List.length battery);
  List.iter
    (fun (e : Rep.entry) ->
      match e.Rep.status with
      | Rep.Pass _ -> ()
      | s -> Alcotest.failf "%s drained as %a" e.Rep.item_id Rep.pp_status s)
    drained;
  (* the journal resumes: only the missing items re-run, the report is
     the uninterrupted one *)
  let resumed = P.run ~config:cfg ~journal:path ~resume:path ~oracle battery in
  Alcotest.(check int) "all items reported" (List.length battery)
    (List.length resumed.Rep.entries);
  Alcotest.(check int) "all passed" (List.length battery) resumed.Rep.n_pass;
  Alcotest.(check int) "journal now complete" (List.length battery)
    (List.length (J.load path));
  Sys.remove path

let () =
  Alcotest.run "pool"
    [
      ( "isolation",
        [
          Alcotest.test_case "crash contained" `Quick test_crash_contained;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "watchdog kills loop" `Slow
            test_watchdog_kills_loop;
          Alcotest.test_case "mem cap contains OOM" `Slow
            test_mem_cap_contains_oom;
          Alcotest.test_case "every outcome classified" `Slow
            test_every_outcome_classified;
        ] );
      ( "retry",
        [
          Alcotest.test_case "flaky crash retried" `Quick
            test_flaky_crash_retried;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drains and journal resumes" `Slow
            test_sigterm_drains_journal;
        ] );
      ( "policy",
        [
          Alcotest.test_case "crash beats error" `Quick
            test_crash_beats_error_exit_code;
          Alcotest.test_case "agrees with runner" `Quick
            test_agrees_with_runner;
        ] );
    ]
