(* RCU end to end (Sections 4 and 6):
   1. the RCU axiom forbids RCU-MP and RCU-deferred-free;
   2. the fundamental law agrees with the axiom (Theorem 1) on every
      candidate execution;
   3. the Figure 15 implementation, substituted for the primitives and run
      on the simulated architectures, never exhibits the forbidden
      outcomes — while broken variants do (given enough runs).

   Run with:  dune exec examples/rcu_verification.exe *)

let () =
  Fmt.pr "== 1. RCU verdicts under the LK model ==@.";
  List.iter
    (fun name ->
      let e = Harness.Battery.find name in
      let test = Harness.Battery.test_of e in
      Fmt.pr "%s: %a@." name Exec.Check.pp_result
        (Exec.Oracle.run ~explain:true Lkmm.oracle test))
    [ "RCU-MP"; "RCU-deferred-free"; "RCU+2rscs+1gp"; "RCU+2rscs+2gp" ];

  Fmt.pr "@.== 2. Theorem 1: Pb+RCU axioms <=> fundamental law ==@.";
  let total = ref 0 in
  List.iter
    (fun name ->
      let test = Harness.Battery.test_of (Harness.Battery.find name) in
      List.iter
        (fun x ->
          incr total;
          assert (Lkmm.Rcu.theorem1_holds x))
        (Exec.of_test test))
    [ "RCU-MP"; "RCU-deferred-free"; "RCU+2rscs+1gp"; "RCU+2rscs+2gp";
      "SB+mb+sync" ];
  Fmt.pr "equivalence checked on %d candidate executions: OK@." !total;

  (* A precedes-function witness for one allowed execution, to make the
     law concrete. *)
  let test = Harness.Battery.test_of (Harness.Battery.find "RCU-MP") in
  let consistent =
    List.filter Lkmm.consistent (Exec.of_test test)
  in
  (match consistent with
  | x :: _ ->
      let c = Lkmm.Relations.make x in
      (match Lkmm.Rcu.law_witness c with
      | Some choices ->
          Fmt.pr "a consistent RCU-MP execution has %d (RSCS, GP) pair(s); \
                  witness: %s@."
            (List.length choices)
            (String.concat ", "
               (List.map
                  (fun (_, side) ->
                    match side with
                    | Lkmm.Rcu.Rscs_first -> "RSCS precedes GP"
                    | Lkmm.Rcu.Gp_first -> "GP precedes RSCS")
                  choices))
      | None -> assert false)
  | [] -> assert false);

  Fmt.pr "@.== 3. The Figure 15 implementation (Theorem 2, empirically) ==@.";
  let results = Harness.Rcu_study.run_all ~runs:300 () in
  List.iter (fun r -> Fmt.pr "%a@." Harness.Rcu_study.pp r) results;
  match Harness.Rcu_study.issues results with
  | [] ->
      Fmt.pr
        "@.faithful implementation: forbidden outcomes never observed — \
         consistent with Theorem 2@."
  | issues -> List.iter (Fmt.pr "PROBLEM: %s@.") issues
