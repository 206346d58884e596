(* Tests for Harness.Registry: every built-in name and alias resolves
   (case-insensitively) to one entry whose oracle carries its display
   name; an unknown name is an error that lists the registered names; a
   .cat path loads; and each built-in explains its verdicts in the
   vocabulary of its shipped cat twin. *)

module Reg = Harness.Registry

let sb_mbs = Harness.Battery.test_of (Harness.Battery.find "SB+mbs")

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_names_resolve () =
  List.iter
    (fun (m : Reg.t) ->
      List.iter
        (fun name ->
          List.iter
            (fun spelling ->
              match Reg.find spelling with
              | Ok m' ->
                  Alcotest.(check string) (spelling ^ " resolves") m.key
                    m'.key
              | Error e -> Alcotest.failf "%s: %s" spelling e)
            [ name; String.uppercase_ascii name ])
        (m.key :: m.aliases);
      Alcotest.(check string)
        (m.key ^ ": the oracle carries the display name")
        m.name (Reg.oracle m).Exec.Oracle.name)
    Reg.all;
  let names = List.concat_map (fun (m : Reg.t) -> m.key :: m.aliases) Reg.all in
  Alcotest.(check int) "no name is registered twice" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_unknown_name () =
  match Reg.find "bogus" with
  | Ok _ -> Alcotest.fail "bogus resolved"
  | Error e ->
      List.iter
        (fun (m : Reg.t) ->
          Alcotest.(check bool)
            ("the error lists " ^ m.key)
            true
            (contains e m.key))
        Reg.all

let test_cat_path () =
  let path = Filename.temp_file "registry_test" ".cat" in
  let oc = open_out_bin path in
  output_string oc Cat.Stdmodels.sc;
  close_out oc;
  (match Reg.find path with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok m ->
      Alcotest.(check string) "named by its path" path m.name;
      let r = Exec.Oracle.run ~explain:true (Reg.oracle m) sb_mbs in
      Alcotest.(check bool) "SB+mbs is forbidden under sc.cat" true
        (r.Exec.Check.verdict = Exec.Check.Forbid);
      Alcotest.(check (list string))
        "explained by its own checks" [ "sc" ]
        (List.map (fun (e : Exec.Explain.t) -> e.check) r.explanations));
  Sys.remove path;
  match Reg.find path with
  | Ok _ -> Alcotest.fail "a missing .cat file resolved"
  | Error _ -> ()

(* The shipped cat twin of each built-in. *)
let twins =
  Cat.Stdmodels.
    [
      (Reg.lk, lk);
      (Reg.lk_cat, lk);
      (Reg.sc, sc);
      (Reg.tso, tso);
      (Reg.c11, c11);
      (Reg.c11_psc, c11_psc);
    ]

let test_explainer_vocabulary () =
  Alcotest.(check int) "every built-in has a twin" (List.length Reg.all)
    (List.length twins);
  List.iter
    (fun ((m : Reg.t), twin) ->
      match (Reg.oracle m).Exec.Oracle.explainer with
      | None -> Alcotest.failf "%s has no explainer" m.key
      | Some e ->
          Alcotest.(check (list string))
            (m.key ^ ": explainer checks are the twin's as names")
            (Cat.Explain.check_names (Cat.parse twin))
            e.Exec.Oracle.checks)
    twins

(* With forensics on, every built-in that forbids SB+mbs names a check
   of its own vocabulary; with forensics off, none runs. *)
let test_explain_flag () =
  List.iter
    (fun (m : Reg.t) ->
      let o = Reg.oracle m in
      let off = Exec.Oracle.run o sb_mbs in
      Alcotest.(check int) (m.key ^ ": off") 0
        (List.length off.Exec.Check.explanations);
      let on = Exec.Oracle.run ~explain:true o sb_mbs in
      Alcotest.(check bool) (m.key ^ ": verdict unchanged") true
        (on.Exec.Check.verdict = off.Exec.Check.verdict);
      if on.Exec.Check.verdict = Exec.Check.Forbid then
        let vocab = (Option.get o.Exec.Oracle.explainer).Exec.Oracle.checks in
        Alcotest.(check bool) (m.key ^ ": explained in its vocabulary") true
          (on.Exec.Check.explanations <> []
          && List.for_all
               (fun (e : Exec.Explain.t) -> List.mem e.check vocab)
               on.Exec.Check.explanations))
    Reg.all

(* C11 has no RCU: the C11 columns skip RCU tests. *)
let test_applicability () =
  let rcu = Harness.Battery.test_of (Harness.Battery.find "RCU-MP") in
  List.iter
    (fun (m : Reg.t) ->
      Alcotest.(check bool) (m.key ^ " applies to SB+mbs") true (m.applies sb_mbs))
    Reg.all;
  Alcotest.(check (list string))
    "models skipping RCU tests" [ "c11"; "c11-psc" ]
    (List.filter_map
       (fun (m : Reg.t) -> if m.applies rcu then None else Some m.key)
       Reg.all)

let () =
  Alcotest.run "registry"
    [
      ( "lookup",
        [
          Alcotest.test_case "names and aliases resolve" `Quick
            test_names_resolve;
          Alcotest.test_case "unknown name is an error" `Quick test_unknown_name;
          Alcotest.test_case ".cat path loads" `Quick test_cat_path;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "explainer vocabulary is the cat twin's" `Quick
            test_explainer_vocabulary;
          Alcotest.test_case "explain flag" `Quick test_explain_flag;
        ] );
      ( "applicability",
        [ Alcotest.test_case "C11 skips RCU" `Quick test_applicability ] );
    ]
