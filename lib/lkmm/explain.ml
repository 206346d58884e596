(* Native verdicts, cat-level explanations: {!Axioms} detects the
   violations and the cat engine on lk.cat (the same relations under the
   same names) extracts and decomposes the cycles.  Were the two to
   disagree, the explanation would describe another model than the
   verdict: a hard [Exec.Explain.Invalid]. *)

let explain_execution (x : Exec.t) : Exec.Explain.t list =
  match Axioms.violations (Relations.make_cached x) with
  | [] -> []
  | native ->
      let es = Cat.Explain.explain_execution (Lazy.force Cat.lk) x in
      let named =
        List.sort_uniq compare
          (List.map (fun (e : Exec.Explain.t) -> e.Exec.Explain.check) es)
      in
      let expected = List.sort_uniq compare (List.map Axioms.to_string native) in
      if named <> expected then
        raise
          (Exec.Explain.Invalid
             (Printf.sprintf "lk.cat fails {%s} where the native model fails {%s}"
                (String.concat ", " named)
                (String.concat ", " expected)));
      es
