(* Writes the shipped cat models to the models/ directory (the OCaml
   strings in Cat.Stdmodels are the source of truth; a test keeps the two
   in sync).

   Robustness: every model is re-parsed before writing (a corrupt
   stdmodel is reported as a classified error, not silently shipped),
   write failures are reported per file, and the exit code distinguishes
   success (0) from any error (2).  Like the other tools, catgen speaks
   the unified report schema (--json) and the observability flags
   (--trace/--metrics) through Harness.Cli. *)

open Cmdliner

let main json trace metrics dir =
  Harness.Cli.with_obs ~trace ~metrics @@ fun () ->
  let module R = Harness.Runner in
  let module Rep = Harness.Report in
  let ppf = if json then Fmt.stderr else Fmt.stdout in
  let t_start = Unix.gettimeofday () in
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Fmt.epr "catgen: %s is not a directory@." dir;
    2
  end
  else begin
    let entries =
      List.map
        (fun (name, file, src) ->
          let t0 = Unix.gettimeofday () in
          let entry status =
            {
              Rep.item_id = name;
              status;
              time = Unix.gettimeofday () -. t0;
              n_candidates = 0;
              retried = false;
              result = None;
            }
          in
          Obs.with_span ~item:name "item" @@ fun () ->
          (* the string must round-trip through the cat parser before it
             is written out as a shipped model *)
          match Cat.parse src with
          | _ -> (
              let path = Filename.concat dir file in
              match
                (* atomic: write to a temp file and rename, so an
                   interrupted catgen cannot leave a torn model *)
                let tmp = path ^ ".tmp" in
                let oc = open_out tmp in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () -> output_string oc src);
                Sys.rename tmp path
              with
              | () ->
                  Fmt.pf ppf "wrote %s@." path;
                  (* a written model is a passed item; the verdict slot is
                     vacuous for catgen, recorded as Allow *)
                  entry (Rep.Pass Exec.Check.Allow)
              | exception Sys_error msg ->
                  Fmt.epr "catgen: cannot write %s: %s@." path msg;
                  entry (Rep.Err { Rep.cls = Rep.Internal; msg; line = None }))
          | exception exn ->
              let e = R.classify_exn exn in
              Fmt.epr "catgen: model %s does not parse: %a@." name Rep.pp_error e;
              entry (Rep.Err e))
        Cat.Stdmodels.all
    in
    let report =
      Harness.Report.summarise ~wall:(Unix.gettimeofday () -. t_start) entries
    in
    if json then print_string (Harness.Report.to_json report ^ "\n");
    Harness.Report.exit_code report
  end

let dir_arg =
  Arg.(
    value
    & pos 0 string "models"
    & info [] ~docv:"DIR" ~doc:"Destination directory (default: models).")

let cmd =
  let module C = Harness.Cli in
  Cmd.v
    (Cmd.info "catgen" ~doc:"Write the shipped cat models to a directory"
       ~exits:C.exit_infos)
    Term.(const main $ C.json_arg $ C.trace_arg $ C.metrics_arg $ dir_arg)

let () = Harness.Cli.eval ~name:"catgen" cmd
