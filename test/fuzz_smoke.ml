(* Crash-robustness fault injection: mutate well-formed litmus and cat
   sources (truncation, token deletion, token swaps, byte flips, line
   drops) and feed the wrecks to the toolchain.  The contract under test:

   - litmus inputs through Harness.Runner.run_item NEVER raise — every
     failure is a classified entry (parse/lex/type/lint/budget/internal);
   - Cat.parse on garbage raises only its typed Parser.Error/Lexer.Error;
   - cat sources that still parse run as models through the same fault
     barrier without escaping exceptions;
   - the explain path rides along on every check (the native explainer
     for litmus mutants, the mutated model explaining itself for cat
     mutants): explainer failures must surface as classified entries
     through the same barrier, never as escapes.

   Deterministic: a fixed Random.State seed, so a failure reproduces.
   Run directly (dune exec test/fuzz_smoke.exe) or via dune runtest. *)

let seed = [| 0x5eed; 2018 |]
let mutants_per_source = 48

(* ---- mutation operators ------------------------------------------- *)

let truncate rng s =
  if String.length s < 2 then s
  else String.sub s 0 (1 + Random.State.int rng (String.length s - 1))

let split_tokens s =
  (* whitespace-separated, keeping it simple: mutations need not be
     syntactically meaningful, only deterministic *)
  String.split_on_char ' ' s

let join_tokens = String.concat " "

let delete_token rng s =
  match split_tokens s with
  | [] | [ _ ] -> s
  | toks ->
      let i = Random.State.int rng (List.length toks) in
      join_tokens (List.filteri (fun j _ -> j <> i) toks)

let swap_tokens rng s =
  match split_tokens s with
  | [] | [ _ ] -> s
  | toks ->
      let n = List.length toks in
      let i = Random.State.int rng n and j = Random.State.int rng n in
      join_tokens
        (List.mapi
           (fun k t ->
             if k = i then List.nth toks j
             else if k = j then List.nth toks i
             else t)
           toks)

let flip_byte rng s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = Random.State.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Random.State.int rng 256));
    Bytes.to_string b
  end

let drop_line rng s =
  match String.split_on_char '\n' s with
  | [] | [ _ ] -> s
  | lines ->
      let i = Random.State.int rng (List.length lines) in
      String.concat "\n" (List.filteri (fun j _ -> j <> i) lines)

let mutators = [| truncate; delete_token; swap_tokens; flip_byte; drop_line |]

let mutate rng s =
  (* one to three stacked mutations *)
  let n = 1 + Random.State.int rng 3 in
  let rec go n s =
    if n = 0 then s
    else go (n - 1) (mutators.(Random.State.int rng (Array.length mutators)) rng s)
  in
  go n s

(* ---- the harness ---------------------------------------------------- *)

let limits = Exec.Budget.limits ~timeout:2.0 ~max_candidates:20_000 ()

let escaped = ref 0 (* exceptions that got past a fault barrier *)
let untyped = ref 0 (* cat parse failures outside the typed errors *)
let explained = ref 0 (* mutants whose run produced explanations *)
let total = ref 0
let by_status = Hashtbl.create 16

let record k = Hashtbl.replace by_status k (1 + try Hashtbl.find by_status k with Not_found -> 0)

let note_explained (e : Harness.Report.entry) =
  match e.Harness.Report.result with
  | Some r when r.Exec.Check.explanations <> [] -> incr explained
  | _ -> ()

let run_litmus_mutant src =
  incr total;
  let item =
    { Harness.Runner.id = "mutant"; source = `Text src; expected = None }
  in
  match
    Harness.Runner.run_item ~limits ~explain:true ~oracle:Lkmm.oracle item
  with
  | e ->
      note_explained e;
      record
        (match e.Harness.Report.status with
        | Harness.Report.Pass _ -> "pass"
        | Harness.Report.Fail _ -> "fail"
        | Harness.Report.Gave_up _ -> "gave-up"
        | Harness.Report.Err i -> Harness.Report.class_to_string i.cls)
  | exception exn ->
      incr escaped;
      Printf.eprintf "ESCAPED (litmus runner): %s\ninput:\n%s\n"
        (Printexc.to_string exn) src

let sb_probe =
  (* a tiny well-formed test to exercise mutated-but-parsing cat models *)
  (Harness.Battery.find "SB+mbs").Harness.Battery.source

let run_cat_mutant src =
  incr total;
  match Cat.parse src with
  | model -> (
      record "cat-parses";
      (* the mutated model still parses: interpret it inside the fault
         barrier, where type errors must come out classified — with the
         mutated model also explaining its own verdicts, so explainer
         faults (bad relation references, broken checks) hit the same
         barrier *)
      let oracle = Cat.to_oracle ~name:"mutant" model in
      let item =
        { Harness.Runner.id = "cat-mutant"; source = `Text sb_probe;
          expected = None }
      in
      match
        Harness.Runner.run_item ~limits ~explain:true ~oracle item
      with
      | e ->
          note_explained e;
          record
            (match e.Harness.Report.status with
            | Harness.Report.Err i ->
                (if i.cls = Harness.Report.Internal then
                   Printf.eprintf "INTERNAL: %s\n" i.msg);
                "cat-" ^ Harness.Report.class_to_string i.cls
            | _ -> "cat-runs")
      | exception exn ->
          incr escaped;
          Printf.eprintf "ESCAPED (cat interp): %s\nmodel:\n%s\n"
            (Printexc.to_string exn) src)
  | exception Cat.Parser.Error (_, line) when line >= 1 -> record "cat-parse-err"
  | exception Cat.Lexer.Error (_, line) when line >= 1 -> record "cat-lex-err"
  | exception exn ->
      incr untyped;
      Printf.eprintf "UNTYPED cat parse failure: %s\ninput:\n%s\n"
        (Printexc.to_string exn) src

let () =
  let rng = Random.State.make seed in
  let litmus_bases =
    (* a slice of the battery: varied threads, fences, rmw, conditions *)
    List.filteri (fun i _ -> i mod 3 = 0) Harness.Battery.all
    |> List.map (fun e -> e.Harness.Battery.source)
  in
  let cat_bases = List.map (fun (_, _, src) -> src) Cat.Stdmodels.all in
  List.iter
    (fun src ->
      for _ = 1 to mutants_per_source do
        run_litmus_mutant (mutate rng src)
      done)
    litmus_bases;
  List.iter
    (fun src ->
      for _ = 1 to mutants_per_source do
        run_cat_mutant (mutate rng src)
      done)
    cat_bases;
  Printf.printf "fuzz_smoke: %d mutated inputs (%d with explanations)\n"
    !total !explained;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_status []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-14s %d\n" k v);
  if !total < 500 then begin
    Printf.eprintf "fuzz_smoke: FEWER THAN 500 MUTANTS (%d)\n" !total;
    exit 1
  end;
  if !escaped > 0 || !untyped > 0 then begin
    Printf.eprintf "fuzz_smoke: %d escaped exception(s), %d untyped failure(s)\n"
      !escaped !untyped;
    exit 1
  end;
  if !explained = 0 then begin
    (* the explainer must actually have run on some mutants, or the
       explain-path coverage above is vacuous *)
    Printf.eprintf "fuzz_smoke: explain path never exercised\n";
    exit 1
  end;
  print_endline "fuzz_smoke: OK (no uncaught exceptions)"
