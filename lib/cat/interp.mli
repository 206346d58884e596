(** Interpreter for the cat subset: evaluates a model's statements against
    the base relations of candidate executions, herd-style.

    One evaluator serves one candidate or a batch of up to 63 candidates
    sharing one event structure
    ({!Exec.Execution.static_compatible}).  Values are sets of events,
    relations identical in every candidate of the environment, per-candidate
    relations held as bit planes ({!Rel.Batch}), or (unapplied)
    functions.  Operators stay on the scalar {!Rel} kernel while their
    operands do and run word-parallel across the live planes once one
    operand is per-candidate, broadcasting the other; a single candidate's
    environment holds no planes, so its evaluation never leaves {!Rel}.
    Sets appearing in relation position are coerced to identities, as
    with the bracket form [[S]].  Recursive definitions are solved by
    Kleene iteration from the empty relation (cat's [rec] is a least fixed
    point of monotone equations). *)

module Iset = Rel.Iset

type value =
  | Vset of Iset.t
  | Vrel of Rel.t  (** identical in every candidate *)
  | Vplanes of Rel.Batch.t  (** relation-valued, varying per candidate *)
  | Vfun of string list * Ast.expr * env

and env = {
  universe : Iset.t;
  n : int;  (** events per candidate: the shared universe size *)
  mask : int;  (** planes still undecided; broadcasts target these *)
  bindings : (string * value) list;
}

(** Raised on unbound identifiers, arity mismatches, or set/relation
    confusion ([empty W * po], a function used as a relation, ...).  The
    dialect has no relation-to-set operator, so per-candidate values are
    always relations, and a batch raises exactly where each of its
    candidates would. *)
exception Type_error of string

val lookup : env -> string -> value
val bind : env -> string -> value -> env

(** A scalar value as a relation; raises [Invalid_argument] on
    [Vplanes]. *)
val as_rel : value -> Rel.t

val eval : env -> Ast.expr -> value

(** [eval_let ?budget env bindings is_rec] evaluates one [let] group
    (Kleene iteration until every plane converges when [is_rec]) and
    returns the extended environment.  Exposed for {!Explain}, which
    replays a model's statements to record where each name was
    defined. *)
val eval_let :
  ?budget:Exec.Budget.t ->
  env -> (string * string list * Ast.expr) list -> bool -> env

(** [check env kind e] decides one check for every live plane at once:
    the planes of [env.mask] where it holds (so, for a single candidate,
    [1] or [0]). *)
val check : env -> Ast.check_kind -> Ast.expr -> int

type outcome = {
  check_name : string;  (** the [as name] label, or ["(unnamed)"] *)
  kind : Ast.check_kind;
  holds : bool;
}

(** [run ?budget model env] executes all statements against a single
    candidate's [env]; returns every constraint's outcome in source
    order.  With a budget, the deadline is probed between statements
    and on every Kleene iteration of recursive definitions, raising
    {!Exec.Budget.Exceeded} when it passes.  The uncached reference for
    {!run_with_prefix}. *)
val run : ?budget:Exec.Budget.t -> Ast.t -> env -> outcome list

(** {1 Static-prefix evaluation}

    Candidate executions of one litmus test share their event structure
    across all rf/co witnesses; a binding whose free identifiers never
    reach a witness-dependent name has the same value for every
    candidate and can be evaluated once per test instead of once per
    candidate.  [compile] performs that dependency analysis once per
    model, [prefix] evaluates the static statements against one
    candidate, and [run_with_prefix] replays the statement list reusing
    the prefix — producing exactly {!run}'s verdict for each
    candidate. *)

(** The predefined names that depend on the execution witness. *)
val witness_names : string list

(** The predefined names determined by the event structure alone. *)
val structural_names : string list

(** A model with each statement classified static (computable from the
    event structure alone) or dynamic. *)
type compiled

val compile : Ast.t -> compiled

(** The values of a [compiled] model's static statements, for one event
    structure. *)
type prefix

(** [prefix ?budget compiled env] evaluates the static statements in
    source order (skipping dynamic ones, which by construction no static
    statement depends on). *)
val prefix : ?budget:Exec.Budget.t -> compiled -> env -> prefix

(** [run_with_prefix ?budget p env] replays all statements in source
    order against [env] — one candidate ({!env_of_execution}) or a batch
    ({!env_of_executions}) sharing the event structure [p] was built
    from — binding static definitions and reusing static check outcomes
    from [p], and returns the planes of [env.mask] satisfying every
    check.  The live mask shrinks as checks fail, but no statement is
    skipped, so a model raising on one candidate raises on any batch
    holding it; [cat.batch.early_exit] counts batches narrowed before
    their final check. *)
val run_with_prefix : ?budget:Exec.Budget.t -> prefix -> env -> int

(** The predefined cat environment of an execution: the event sets ([_],
    [W], [R], [M], [F], [IW], and one per annotation), the base relations
    ([po], [addr], [data], [ctrl], [rmw], [rf], [co]), the usual derived
    ones ([fr], [rfi]/[rfe], [coi]/[coe], [fri]/[fre], [com], [po-loc],
    [loc], [int], [ext], [id]) and the RCU [crit] matching; [mask = 1]. *)
val env_of_execution : Exec.t -> env

(** [env_of_executions ~mask xs] is the same for a batch: structural
    bindings from [xs.(0)] (identical in every candidate by
    construction), witness relations stacked into bit planes covering
    the candidates of [mask]. *)
val env_of_executions : mask:int -> Exec.t array -> env
