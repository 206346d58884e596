(* Tests for the cat language: lexer, parser, interpreter semantics, the
   shipped models, and full agreement with the native OCaml models. *)

module I = Cat.Interp
module Iset = Rel.Iset

let parse_model = Cat.parse

(* A tiny fixed execution to evaluate expressions against. *)
let sample_exec =
  List.hd
    (Exec.of_test
       (Litmus.parse
          "C s\n{ x=0; }\nP0(int *x) { WRITE_ONCE(x, 1); }\nP1(int *x, int *y) { int r1 = READ_ONCE(x); WRITE_ONCE(y, r1); }\nexists (1:r1=1)"))

let env = I.env_of_execution sample_exec

(* ------------------------------------------------------------------ *)
(* Lexer / parser                                                      *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Cat.Lexer.tokens "let a-b = rf^-1 ; [W] | co^+ & x^* ~y (* c *) 0" in
  let strs = List.map (fun (t, _) -> Cat.Lexer.to_string t) toks in
  Alcotest.(check (list string)) "tokens"
    [ "let"; "a-b"; "="; "rf"; "^-1"; ";"; "["; "W"; "]"; "|"; "co"; "^+";
      "&"; "x"; "^*"; "~"; "y"; "0"; "<eof>" ]
    strs

let test_parser_title () =
  Alcotest.(check string) "string title" "My model"
    (parse_model "\"My model\"\nempty 0 as e").Cat.Ast.title

let test_parser_precedence () =
  (* a ; b | c ; d parses as (a;b) | (c;d) *)
  let m = parse_model "\"t\"\nlet r = po ; rf | co ; fr\nempty 0 as e" in
  match m.Cat.Ast.stmts with
  | Cat.Ast.Let ([ (_, _, Cat.Ast.Union (Cat.Ast.Seq _, Cat.Ast.Seq _)) ], _)
    :: _ ->
      ()
  | _ -> Alcotest.fail "precedence"

let test_parser_postfix () =
  let m = parse_model "\"t\"\nlet r = (rf ; co)^+\nempty 0 as e" in
  match m.Cat.Ast.stmts with
  | Cat.Ast.Let ([ (_, _, Cat.Ast.Plus (Cat.Ast.Seq _)) ], _) :: _ -> ()
  | _ -> Alcotest.fail "postfix"

let test_parser_rec_and () =
  let m =
    parse_model "\"t\"\nlet rec a = b and b = a\nirreflexive a as e"
  in
  match m.Cat.Ast.stmts with
  | Cat.Ast.Let ([ _; _ ], true) :: _ -> ()
  | _ -> Alcotest.fail "rec-and"

let test_parser_errors () =
  let bad src =
    match parse_model src with
    | exception (Cat.Parser.Error _ | Cat.Lexer.Error _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing =" true (bad "\"t\"\nlet a po");
  Alcotest.(check bool) "bad hat" true (bad "\"t\"\nlet a = po^2\nempty 0");
  Alcotest.(check bool) "stray token" true (bad "\"t\"\n] let a = po")

(* Typed errors must carry the line the failure occurred on: the batch
   runner's classified reports depend on these positions. *)
let test_error_positions () =
  (match parse_model "\"t\"\nlet a = po\nlet b = ]\n" with
  | exception Cat.Parser.Error (msg, line) ->
      Alcotest.(check int) "parser error line" 3 line;
      Alcotest.(check bool) "parser error message" true
        (String.length msg > 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "stray bracket accepted");
  match parse_model "\"t\"\nlet a = po\nlet b = a @ a\n" with
  | exception Cat.Lexer.Error (msg, line) ->
      Alcotest.(check int) "lexer error line" 3 line;
      Alcotest.(check bool) "lexer error message" true
        (String.length msg > 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bad character accepted"

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)
(* ------------------------------------------------------------------ *)

let run_checks src =
  I.run (parse_model src) env
  |> List.map (fun (o : I.outcome) -> (o.check_name, o.holds))

let test_acyclic_check () =
  Alcotest.(check (list (pair string bool)))
    "po is acyclic"
    [ ("c", true) ]
    (run_checks "\"t\"\nacyclic po as c");
  Alcotest.(check (list (pair string bool)))
    "po U po^-1 is cyclic"
    [ ("c", false) ]
    (run_checks "\"t\"\nacyclic po | po^-1 as c")

let test_empty_check () =
  Alcotest.(check (list (pair string bool)))
    "rf nonempty; rmw empty"
    [ ("a", false); ("b", true) ]
    (run_checks "\"t\"\nempty rf as a\nempty rmw as b")

let test_brackets_and_product () =
  (* [W] ; po ; [R] vs the full product *)
  Alcotest.(check (list (pair string bool)))
    "bracket filtering"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty ([W] ; po ; [R]) \\ (W * R) as c")

let test_set_operations () =
  Alcotest.(check (list (pair string bool)))
    "M = R | W"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty (R | W) \\ M as c");
  Alcotest.(check (list (pair string bool)))
    "W & R empty"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty W & R as c")

let test_fr_from_primitives () =
  Alcotest.(check (list (pair string bool)))
    "fr = rf^-1;co minus id"
    [ ("c", true) ]
    (run_checks
       "\"t\"\nlet myfr = (rf^-1 ; co) \\ id\nempty (myfr \\ fr) | (fr \\ myfr) as c")

let test_function_application () =
  Alcotest.(check (list (pair string bool)))
    "A-cumul"
    [ ("c", true) ]
    (run_checks
       "\"t\"\nlet f(r) = rfe? ; r\nempty (f(po) \\ (rfe? ; po)) as c")

let test_rec_fixpoint () =
  (* transitive closure by recursion: rec tc = po | tc;tc equals po^+ *)
  Alcotest.(check (list (pair string bool)))
    "recursive closure"
    [ ("c", true) ]
    (run_checks
       "\"t\"\nlet rec tc = po | (tc ; tc)\nempty (tc \\ po^+) | (po^+ \\ tc) as c")

let test_complement () =
  Alcotest.(check (list (pair string bool)))
    "~0 is the full product"
    [ ("c", true) ]
    (run_checks "\"t\"\nempty (_ * _) \\ ~0 as c")

let test_unbound_identifier () =
  match I.run (parse_model "\"t\"\nempty nonsuch as c") env with
  | exception I.Type_error _ -> ()
  | _ -> Alcotest.fail "expected type error"

let test_type_errors () =
  (match I.run (parse_model "\"t\"\nempty W * po as c") env with
  | exception I.Type_error _ -> ()
  | _ -> Alcotest.fail "relation used as set");
  match I.run (parse_model "\"t\"\nlet f(r) = r\nempty f as c") env with
  | exception I.Type_error _ -> ()
  | _ -> Alcotest.fail "function used as relation"

(* ------------------------------------------------------------------ *)
(* Shipped models                                                      *)
(* ------------------------------------------------------------------ *)

let test_stdmodels_parse () =
  List.iter
    (fun (name, _, src) ->
      match parse_model src with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s does not parse: %s" name (Printexc.to_string e))
    Cat.Stdmodels.all

let test_models_dir_in_sync () =
  (* models/*.cat are generated from Stdmodels; keep them identical *)
  List.iter
    (fun (_, file, src) ->
      let path = Filename.concat "../../../models" file in
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let disk = really_input_string ic n in
        close_in ic;
        Alcotest.(check bool) (file ^ " in sync") true (disk = src)
      end)
    Cat.Stdmodels.all

let test_lk_cat_named_checks () =
  let outcomes = Cat.outcomes (Lazy.force Cat.lk) sample_exec in
  let names = List.map (fun (o : I.outcome) -> o.check_name) outcomes in
  Alcotest.(check (list string)) "five named axioms"
    [ "sc-per-variable"; "atomicity"; "happens-before"; "propagates-before";
      "rcu" ]
    names

(* Full agreement between cat and native models over every candidate
   execution of the battery, and per test between both engines of the
   cat oracle (scalar and bit-plane replay) and the native model's
   verdict and counts. *)
let test_cat_native_agreement () =
  let pairs =
    [
      ("LK", Cat.Stdmodels.lk, Lkmm.oracle);
      ("SC", Cat.Stdmodels.sc, Exec.Oracle.of_model (module Models.Sc));
      ("x86-TSO", Cat.Stdmodels.tso, Exec.Oracle.of_model (module Models.Tso));
      ("C11", Cat.Stdmodels.c11, Exec.Oracle.of_model (module Models.C11));
      ( "C11-psc",
        Cat.Stdmodels.c11_psc,
        Exec.Oracle.of_model (module Models.C11.Strengthened) );
    ]
  in
  let key (r : Exec.Check.result) =
    Printf.sprintf "%s consistent=%d matching=%d"
      (Exec.Check.verdict_to_string r.verdict)
      r.n_consistent r.n_matching
  in
  List.iter
    (fun (name, src, (native : Exec.Oracle.t)) ->
      let cat_model = parse_model src in
      let cat = Cat.to_oracle ~name cat_model in
      let module N = (val native.model None) in
      List.iter
        (fun (e : Harness.Battery.entry) ->
          let test = Harness.Battery.test_of e in
          List.iter
            (fun x ->
              Alcotest.(check bool)
                (Printf.sprintf "%s agrees on %s" name e.name)
                (N.consistent x) (Cat.consistent cat_model x))
            (Exec.of_test test);
          let want =
            key (Exec.Oracle.run ~backend:Exec.Check.Enum native test)
          in
          List.iter
            (fun backend ->
              Alcotest.(check string)
                (Printf.sprintf "%s on %s: cat %s = native" name e.name
                   (Exec.Check.backend_to_string backend))
                want
                (key (Exec.Oracle.run ~backend cat test)))
            [ Exec.Check.Enum; Exec.Check.Batch ])
        Harness.Battery.all)
    pairs

(* The corpus, every test of its manifest (tests run from
   _build/default/test). *)
let corpus_tests () =
  match List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ] with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      let read f = Harness.Runner.read_file (Filename.concat dir f) in
      read "MANIFEST"
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.map (fun line ->
             let file = List.hd (String.split_on_char ' ' line) in
             (file, Litmus.parse (read file)))

(* Both engines of [Cat.to_oracle] replay models through one evaluator;
   these exercise what the shipped models do not: a static function
   (closing over a single candidate's environment) applied to witness
   planes, a recursive definition over witness relations, a complement
   of a witness relation — each after a check that narrows the live
   planes — and type errors raised on per-candidate values.  Over the
   corpus, whose larger tests fill multi-plane batches, the scalar and
   batched engines must match the uncached interpreter down to witness
   identity, and the ill-typed models must come back
   [Unknown (Model_error (Type_error _))] on both. *)
let semantics_models =
  [
    "\"static function\"\nlet f(r) = po ; r\nacyclic po | rf as no-lb\n\
     acyclic f(rf) | f(co) | fr as f-order";
    "\"recursion\"\nacyclic po | rf as no-lb\n\
     let rec r = rf | co | po | (r ; r)\nirreflexive r ; fr as rec-order";
    "\"complement\"\nacyclic po | rf as no-lb\n\
     let unread = ~rf & (W * R) & loc\nacyclic po | unread as unread-order";
  ]

let ill_typed_models =
  [
    "\"planes as a set\"\nacyclic [rf] as bad";
    "\"function as a relation\"\nlet f(r) = po ; r\nacyclic f | rf as bad";
  ]

let test_engines_semantics_corpus () =
  let tests = corpus_tests () in
  let budget () = Exec.Budget.start Exec.Budget.unlimited in
  let key (r : Exec.Check.result) =
    ( Exec.Check.verdict_to_string r.verdict,
      (r.n_candidates, r.n_consistent, r.n_matching, r.outcomes),
      Option.map
        (fun (x : Exec.t) -> (Rel.to_list x.rf, Rel.to_list x.co))
        r.witness )
  in
  let occupancy = Obs.Histogram.make "check.batch.occupancy" in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun src ->
          let model = parse_model src in
          let cat = Cat.to_oracle ~name:model.Cat.Ast.title model in
          let module Plain = struct
            let name = model.Cat.Ast.title
            let consistent x = Cat.consistent model x
          end in
          List.iter
            (fun (file, test) ->
              let want = key (Exec.Check.run (module Plain) test) in
              List.iter
                (fun backend ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s on %s: %s = uncached"
                       model.Cat.Ast.title file
                       (Exec.Check.backend_to_string backend))
                    true
                    (key (Exec.Oracle.run ~backend cat test) = want))
                [ Exec.Check.Enum; Exec.Check.Batch ])
            tests)
        semantics_models;
      Alcotest.(check bool)
        "some batch holds several planes" true
        ((Obs.hist_snapshot occupancy).Obs.h_max > 1.));
  List.iter
    (fun src ->
      let model = parse_model src in
      let cat = Cat.to_oracle ~name:model.Cat.Ast.title model in
      List.iter
        (fun (file, test) ->
          List.iter
            (fun backend ->
              match
                (Exec.Oracle.run ~budget:(budget ()) ~backend cat test).verdict
              with
              | Exec.Check.Unknown
                  (Exec.Check.Model_error (Cat.Interp.Type_error _)) ->
                  ()
              | v ->
                  Alcotest.failf "%s on %s (%s): expected a type error, got %s"
                    model.Cat.Ast.title file
                    (Exec.Check.backend_to_string backend)
                    (Exec.Check.verdict_to_string v))
            [ Exec.Check.Enum; Exec.Check.Batch ])
        tests)
    ill_typed_models

let test_cat_native_agreement_generated () =
  let rng = Random.State.make [| 5 |] in
  let tests = Diygen.sample ~vocabulary:Diygen.Edge.vocabulary ~rng ~count:25 4 in
  let lk_cat = parse_model Cat.Stdmodels.lk in
  List.iter
    (fun t ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (t.Litmus.Ast.name ^ ": cat agrees")
            (Lkmm.consistent x) (Cat.consistent lk_cat x))
        (Exec.of_test t))
    tests

(* The native LK model is one transcription of Figures 3, 8 and 12,
   evaluated by three engines (scalar, bit-plane batch, SAT); lk.cat is
   the independent transcription.  Over the seeded size-5 and size-6
   diygen samples (seeds 0..1999, as the statics test walks them: about
   190 tests, 1,600 candidates) every engine must give the cat model's
   verdict, and every candidate the same consistency answer from both
   models. *)
let test_engines_cat_agreement_seeded () =
  let lk_cat = parse_model Cat.Stdmodels.lk in
  let cat = Cat.to_oracle ~name:"LK(cat)" lk_cat in
  let tests =
    List.concat_map
      (fun size ->
        Diygen.generate_range ~vocabulary:Diygen.Edge.core_vocabulary ~size 0
          2000)
      [ 5; 6 ]
  in
  let candidates = ref 0 in
  List.iter
    (fun (seed, t) ->
      let verdict ?backend oracle =
        Exec.Check.verdict_to_string
          (Exec.Oracle.run ?backend oracle t).Exec.Check.verdict
      in
      let want = verdict cat in
      List.iter
        (fun backend ->
          Alcotest.(check string)
            (Printf.sprintf "%s (seed %d): %s = cat" t.Litmus.Ast.name seed
               (Exec.Check.backend_to_string backend))
            want
            (verdict ~backend Lkmm.oracle))
        [ Exec.Check.Enum; Exec.Check.Batch; Exec.Check.Sat ];
      Seq.iter
        (fun x ->
          incr candidates;
          if Lkmm.consistent x <> Cat.consistent lk_cat x then
            Alcotest.failf "%s (seed %d): native and cat disagree on a \
                            candidate"
              t.Litmus.Ast.name seed)
        (Exec.of_test_seq t))
    tests;
  Alcotest.(check bool) "sample is large" true
    (List.length tests > 150 && !candidates > 1500)

let () =
  Alcotest.run "cat"
    [
      ( "syntax",
        [
          Alcotest.test_case "lexer" `Quick test_lexer_tokens;
          Alcotest.test_case "title" `Quick test_parser_title;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "postfix" `Quick test_parser_postfix;
          Alcotest.test_case "rec-and" `Quick test_parser_rec_and;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "acyclic" `Quick test_acyclic_check;
          Alcotest.test_case "empty" `Quick test_empty_check;
          Alcotest.test_case "brackets/product" `Quick
            test_brackets_and_product;
          Alcotest.test_case "set operations" `Quick test_set_operations;
          Alcotest.test_case "fr from primitives" `Quick
            test_fr_from_primitives;
          Alcotest.test_case "functions" `Quick test_function_application;
          Alcotest.test_case "rec fixpoint" `Quick test_rec_fixpoint;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "unbound id" `Quick test_unbound_identifier;
          Alcotest.test_case "type errors" `Quick test_type_errors;
        ] );
      ( "models",
        [
          Alcotest.test_case "stdmodels parse" `Quick test_stdmodels_parse;
          Alcotest.test_case "models dir in sync" `Quick
            test_models_dir_in_sync;
          Alcotest.test_case "lk.cat named checks" `Quick
            test_lk_cat_named_checks;
          Alcotest.test_case "cat = native (battery)" `Slow
            test_cat_native_agreement;
          Alcotest.test_case "cat = native (generated)" `Slow
            test_cat_native_agreement_generated;
          Alcotest.test_case "engines = cat (seeded size-5/6)" `Slow
            test_engines_cat_agreement_seeded;
          Alcotest.test_case "cat engines = uncached (corpus semantics)"
            `Slow test_engines_semantics_corpus;
        ] );
    ]
