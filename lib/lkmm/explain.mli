(** Verdict forensics for the native LK model: structured
    {!Exec.Explain.t} explanations that detect violations natively via
    {!Axioms} and delegate cycle extraction plus provenance
    decomposition to the generic cat engine on the shipped lk.cat (the
    two define the same relations under the same names). *)

(** [explain_execution x] is one validated {!Exec.Explain.t} per
    violated axiom; [[]] iff [x] is consistent.  Raises
    {!Exec.Explain.Invalid} when lk.cat's failing checks on [x] differ
    from the natively violated axioms, as for any explanation that
    fails validation. *)
val explain_execution : Exec.t -> Exec.Explain.t list
