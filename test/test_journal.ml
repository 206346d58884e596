(* Tests for Harness.Journal: line round-trips, tolerance of torn and
   duplicated lines, and crash-safe resume — a pool run SIGKILLed
   mid-battery must resume from its journal, losing at most one item
   and ending with the same report as an uninterrupted run. *)

module R = Harness.Runner

module Rep = Harness.Report
module J = Harness.Journal
module P = Harness.Pool
module B = Exec.Budget

let src name = (Harness.Battery.find name).Harness.Battery.source
let item id source expected = { R.id; source = `Text source; expected }

let tmpfile () = Filename.temp_file "journal_test" ".jsonl"

let entry ?(retried = false) ?(time = 0.25) ?(candidates = 7) id status =
  {
    Rep.item_id = id;
    status;
    time;
    n_candidates = candidates;
    retried;
    result = None;
  }

let sample_entries =
  [
    entry "p" (Rep.Pass Exec.Check.Allow);
    entry "f"
      (Rep.Fail { expected = Exec.Check.Forbid; got = Exec.Check.Allow });
    entry "g-time" (Rep.Gave_up (B.Timed_out 2.5));
    entry "g-events" (Rep.Gave_up (B.Too_many_events (300, 256)));
    entry "g-cand" (Rep.Gave_up (B.Too_many_candidates 1000));
    entry "g-heap" (Rep.Gave_up (B.Heap_exceeded 64));
    entry ~retried:true "e-crash"
      (Rep.Err { Rep.cls = Rep.Crash 11; msg = "worker killed by SIGSEGV"; line = None });
    entry "e-parse"
      (Rep.Err { Rep.cls = Rep.Parse; msg = "syntax error"; line = Some 3 });
    entry "e-quote"
      (Rep.Err { Rep.cls = Rep.Internal; msg = "a \"quoted\"\nmessage"; line = None });
  ]

let check_entry_eq label (a : Rep.entry) (b : Rep.entry) =
  Alcotest.(check string) (label ^ " id") a.Rep.item_id b.Rep.item_id;
  Alcotest.(check bool) (label ^ " status") true (a.Rep.status = b.Rep.status);
  Alcotest.(check bool) (label ^ " retried") a.Rep.retried b.Rep.retried;
  Alcotest.(check int) (label ^ " candidates") a.Rep.n_candidates b.Rep.n_candidates;
  Alcotest.(check bool)
    (label ^ " time")
    true
    (Float.abs (a.Rep.time -. b.Rep.time) < 1e-6)

let test_round_trip () =
  List.iter
    (fun e ->
      match J.entry_of_line (J.line_of_entry e) with
      | Some e' -> check_entry_eq e.Rep.item_id e e'
      | None ->
          Alcotest.failf "%s did not round-trip: %s" e.Rep.item_id
            (J.line_of_entry e))
    sample_entries

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l) lines;
  close_out oc

let test_truncated_tail () =
  let path = tmpfile () in
  let l1 = J.line_of_entry (List.nth sample_entries 0) in
  let l2 = J.line_of_entry (List.nth sample_entries 1) in
  let l3 = J.line_of_entry (List.nth sample_entries 2) in
  (* the third line is torn mid-write, as after a kill -9 *)
  write_lines path
    [ l1 ^ "\n"; l2 ^ "\n"; String.sub l3 0 (String.length l3 / 2) ];
  let loaded = J.load path in
  Sys.remove path;
  Alcotest.(check int) "torn line dropped" 2 (List.length loaded);
  Alcotest.(check (list string)) "surviving ids" [ "p"; "f" ]
    (List.map (fun (e : Rep.entry) -> e.Rep.item_id) loaded)

let test_empty_and_missing () =
  let path = tmpfile () in
  write_lines path [];
  Alcotest.(check int) "empty journal" 0 (List.length (J.load path));
  Sys.remove path;
  Alcotest.(check int) "missing journal" 0 (List.length (J.load path))

let test_duplicate_ids_last_wins () =
  let path = tmpfile () in
  let first = entry "dup" (Rep.Err { Rep.cls = Rep.Crash 11; msg = "x"; line = None }) in
  let second = entry ~retried:true "dup" (Rep.Pass Exec.Check.Allow) in
  write_lines path
    [
      J.line_of_entry first ^ "\n";
      J.line_of_entry (entry "other" (Rep.Pass Exec.Check.Forbid)) ^ "\n";
      J.line_of_entry second ^ "\n";
    ];
  let loaded = J.load path in
  Sys.remove path;
  Alcotest.(check int) "two distinct ids" 2 (List.length loaded);
  let dup = List.find (fun (e : Rep.entry) -> e.Rep.item_id = "dup") loaded in
  check_entry_eq "last occurrence wins" second dup;
  (* order of first occurrence is preserved *)
  Alcotest.(check (list string)) "order" [ "dup"; "other" ]
    (List.map (fun (e : Rep.entry) -> e.Rep.item_id) loaded)

let test_writer_appends () =
  let path = tmpfile () in
  let w = J.open_writer path in
  J.write w (List.nth sample_entries 0);
  J.close w;
  let w = J.open_writer path in
  J.write w (List.nth sample_entries 1);
  J.close w;
  let loaded = J.load path in
  Sys.remove path;
  Alcotest.(check (list string)) "both sessions present" [ "p"; "f" ]
    (List.map (fun (e : Rep.entry) -> e.Rep.item_id) loaded)

let test_fsync_writer () =
  let path = tmpfile () in
  let w = J.open_writer ~fsync:true path in
  List.iter (J.write w) sample_entries;
  J.close w;
  let loaded = J.load path in
  Sys.remove path;
  Alcotest.(check (list string))
    "all entries durable through the fsync path"
    (List.map (fun (e : Rep.entry) -> e.Rep.item_id) sample_entries)
    (List.map (fun (e : Rep.entry) -> e.Rep.item_id) loaded)

(* The recovery property, exhaustively: truncate a journal at *every*
   byte offset.  Whatever the cut, recovery must yield exactly the
   entries whose complete line text fits under it — never dropping a
   complete entry, never accepting a torn one. *)
let test_truncate_every_offset () =
  let entries =
    [
      List.nth sample_entries 0;
      List.nth sample_entries 2;
      List.nth sample_entries 6;
      List.nth sample_entries 8;
    ]
  in
  let texts = List.map J.line_of_entry entries in
  let full = String.concat "" (List.map (fun t -> t ^ "\n") texts) in
  (* offset at which each entry's line text (newline excluded — a final
     line torn of its newline still parses) is complete *)
  let ends, _ =
    List.fold_left
      (fun (acc, pos) t ->
        let e = pos + String.length t in
        (e :: acc, e + 1))
      ([], 0) texts
  in
  let ends = List.rev ends in
  let path = tmpfile () in
  for cut = 0 to String.length full do
    write_lines path [ String.sub full 0 cut ];
    let expected =
      List.filteri (fun i _ -> List.nth ends i <= cut) entries
    in
    let loaded = J.load path in
    Alcotest.(check (list string))
      (Printf.sprintf "cut at byte %d" cut)
      (List.map (fun (e : Rep.entry) -> e.Rep.item_id) expected)
      (List.map (fun (e : Rep.entry) -> e.Rep.item_id) loaded);
    List.iter2 (fun e e' -> check_entry_eq "recovered intact" e e')
      expected loaded
  done;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Resume after SIGKILL                                                *)
(* ------------------------------------------------------------------ *)

let battery_items =
  [
    item "SB" (src "SB") (Some Exec.Check.Allow);
    item "MP" (src "MP") (Some Exec.Check.Allow);
    item "MP+wmb+rmb" (src "MP+wmb+rmb") (Some Exec.Check.Forbid);
    item "LB" (src "LB") (Some Exec.Check.Allow);
    item "bad" "C broken\n{ x=0;\nP0(int *x" None;
  ]

let limits = B.limits ~timeout:5.0 ()
let oracle = Lkmm.oracle

let config = { P.default with P.jobs = 1; limits }

(* each item takes >= 150ms, giving the parent a window to SIGKILL the
   run between journal appends *)
let slow_worker (it : R.item) =
  Unix.sleepf 0.15;
  R.run_item ~limits ~oracle it

let wait_for_journal_lines path n deadline =
  let count () =
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
  in
  let rec go () =
    if count () >= n then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let test_resume_after_sigkill () =
  let path = tmpfile () in
  Sys.remove path;
  (* the runner as a subprocess: a forked child drives the pool with
     the journal attached *)
  flush stdout;
  flush stderr;
  let child =
    match Unix.fork () with
    | 0 ->
        (try
           ignore
             (P.run ~config ~worker:slow_worker ~journal:path ~oracle
                battery_items)
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  (* kill -9 once at least two items are journalled, mid-battery *)
  let got_two =
    wait_for_journal_lines path 2 (Unix.gettimeofday () +. 20.)
  in
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  Alcotest.(check bool) "journal grew before the kill" true got_two;
  let journalled = List.length (J.load path) in
  Alcotest.(check bool) "partial journal" true
    (journalled >= 2 && journalled < List.length battery_items);
  (* resume: only the missing items re-run *)
  let resumed =
    P.run ~config ~worker:slow_worker ~journal:path ~resume:path ~oracle
      battery_items
  in
  (* ... and the report is the one an uninterrupted run produces *)
  let reference = P.run ~config ~oracle battery_items in
  Alcotest.(check int) "all items reported"
    (List.length battery_items)
    (List.length resumed.Rep.entries);
  List.iter2
    (fun (a : Rep.entry) (b : Rep.entry) ->
      Alcotest.(check string) "same id order" b.Rep.item_id a.Rep.item_id;
      Alcotest.(check string)
        (b.Rep.item_id ^ " same classified outcome")
        (Harness.Shrink.fingerprint b)
        (Harness.Shrink.fingerprint a))
    resumed.Rep.entries reference.Rep.entries;
  Alcotest.(check int) "same exit code" (Rep.exit_code reference)
    (Rep.exit_code resumed);
  (* at most one item was lost to the kill: everything journalled
     before the kill was recycled, so the resumed run re-ran exactly
     the missing ones and the journal now covers the whole battery *)
  Alcotest.(check int) "journal now complete"
    (List.length battery_items)
    (List.length (J.load path));
  Sys.remove path

(* Obs.json_escape is the tree's one JSON string escaper; Journal.Json
   is its reading half.  Every one-byte string must come back unchanged,
   and no escaped form may carry a raw control byte. *)
let test_escape_round_trip () =
  for b = 0 to 0xff do
    let s = String.make 1 (Char.chr b) in
    let escaped = Obs.json_escape s in
    String.iter
      (fun c ->
        if Char.code c < 0x20 then
          Alcotest.failf "byte 0x%02x: raw control byte in %S" b escaped)
      escaped;
    match J.Json.of_string ("\"" ^ escaped ^ "\"") with
    | J.Json.Str s' when s' = s -> ()
    | _ -> Alcotest.failf "byte 0x%02x: %S does not round-trip" b escaped
  done

let () =
  Alcotest.run "journal"
    [
      ( "lines",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
          Alcotest.test_case "empty and missing" `Quick test_empty_and_missing;
          Alcotest.test_case "duplicate ids" `Quick
            test_duplicate_ids_last_wins;
          Alcotest.test_case "writer appends" `Quick test_writer_appends;
          Alcotest.test_case "fsync writer" `Quick test_fsync_writer;
          Alcotest.test_case "truncate at every offset" `Quick
            test_truncate_every_offset;
          Alcotest.test_case "escape round trip" `Quick
            test_escape_round_trip;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resume after SIGKILL" `Slow
            test_resume_after_sigkill;
        ] );
    ]
