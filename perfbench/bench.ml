(* The benchmark's entry point: one workload per run, its inputs
   generated from --seed, measured for --seconds, every output checked
   against an answer key the engine under test did not produce.  The
   last stdout line is the result object; see NOTES.md. *)

let () =
  let a = Common.parse_args () in
  if not (Sys.file_exists "corpus/MANIFEST" && Sys.file_exists "dune-project")
  then Common.die "run from the root of a checkout of the repository";
  (* a daemon gone away is an error result, not a silent death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Common.fresh_work_dir ();
  Fun.protect
    ~finally:(fun () -> Common.rm_rf Common.work_dir)
    (fun () ->
      match a.Common.workload with
      | "corpus" -> W_corpus.run a
      | "sweep" -> W_sweep.run a
      | "campaign" -> W_campaign.run a
      | w -> Common.die "unknown workload %S (usage: %s)" w Common.usage)
