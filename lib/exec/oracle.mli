(** A checking oracle: one first-class value bundling every engine a
    model ships — the scalar model (always), the bit-plane batched
    evaluator and the symbolic SAT engine (both optional).  Engine
    selection is a {!Check.backend} request at the call site; the
    oracle resolves it against what it actually has, falling back
    (counted, and recorded on the result) when the symbolic engine is
    requested but absent.

    Oracles replace the old [(model, batch_fn)] pairing that each
    harness layer re-assembled: construct one next to the model
    ([Lkmm.oracle], [Cat.to_oracle], …) and pass it as a single value
    through Runner, Pool, Serve, Campaign, Sweep and the CLIs.  A
    model's verdict forensics travel in the same value, so no caller
    can pair one model's verdicts with another model's explanations. *)

type backend_request = Check.backend

(** A model's verdict forensics. *)
type explainer = {
  explain : Execution.t -> Explain.t list;
      (** one validated explanation per failed check of a rejected
          candidate; [[]] iff the candidate is consistent *)
  checks : string list;
      (** every check name an explanation can carry, in source order
          (the vocabulary [--explain-diff] compares) *)
}

type t = {
  name : string;  (** the model's name, stable across engines *)
  model : Budget.t option -> (module Check.MODEL);
      (** the scalar engine — always present; the budget parameter
          serves models whose [consistent] ticks it (cat
          interpretation) *)
  batch : (Budget.t option -> Check.batch_fn) option;
      (** the bit-plane batched engine *)
  solve : Solve.solve_fn option;  (** the symbolic engine *)
  explainer : explainer option;  (** the forensics [~explain] turns on *)
}

(** [of_model (module M)] — a scalar-only oracle around a
    budget-oblivious model, named after it. *)
val of_model : (module Check.MODEL) -> t

val make :
  name:string ->
  model:(Budget.t option -> (module Check.MODEL)) ->
  ?batch:(Budget.t option -> Check.batch_fn) ->
  ?solve:Solve.solve_fn ->
  ?explainer:explainer ->
  unit ->
  t

(** [run t test] checks [test] through the requested backend (default
    [Batch], matching the CLIs' default engine):
    - [Sat]: the symbolic engine if present; otherwise the enumerative
      path runs, the [sat.fallback] counter ticks, and the result
      carries [sat = Some {fallback = true; _}];
    - [Batch]: the batched enumerative path if present, scalar
      otherwise;
    - [Enum]: the scalar path — the reference engine.

    [?prefilter] forwards to {!Check.run} on the enumerative paths.
    [~explain:true] (default [false]) hands the oracle's own explainer
    to whichever engine runs; an oracle without one checks as if
    [explain] were [false]. *)
val run :
  ?budget:Budget.t ->
  ?prefilter:bool ->
  ?explain:bool ->
  ?backend:backend_request ->
  t ->
  Litmus.Ast.t ->
  Check.result

(** Model-allowed outcomes through the oracle (enumerative engines
    only: the symbolic engine answers the per-test existential
    question, not the all-outcomes one, so [Sat] requests use the
    batched path). *)
val allowed_outcomes :
  ?budget:Budget.t ->
  ?prefilter:bool ->
  ?backend:backend_request ->
  t ->
  Litmus.Ast.t ->
  Execution.outcome list
