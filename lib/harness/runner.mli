(** Fault-isolated batch runner: each item runs under a fresh per-test
    {!Exec.Budget} with every exception caught and classified, so one
    malformed or explosive test cannot take a batch down.

    The result types, their JSON rendering and the exit-code policy
    live in {!Report}, the unified versioned schema shared with {!Pool}
    and {!Journal}. *)

(** Classify any exception of the toolchain (litmus/cat parser and lexer
    errors keep their line numbers; anything unrecognised is
    [Internal]). *)
val classify_exn : exn -> Report.error_info

(** {1 Items} *)

type source =
  [ `Text of string  (** litmus concrete syntax *)
  | `File of string  (** path to a .litmus file *)
  | `Ast of Litmus.Ast.t ]

type item = {
  id : string;
  source : source;
  expected : Exec.Check.verdict option;  (** golden verdict, if any *)
}

(** Battery entries as runner items, expecting the battery's LK verdict. *)
val of_battery : Battery.entry list -> item list

(** Read a whole file (shared by the CLIs). *)
val read_file : string -> string

(** [run_item ?oracle item] — parse, lint and check one item inside the
    fault barrier.  Never raises.  [limits] defaults to
    {!Exec.Budget.default}; pass {!Exec.Budget.unlimited} to disable
    budgeting (exceptions are still caught).  [lint] defaults to [true]:
    lint errors become [Err {cls = Lint; _}] entries.  When the
    observability collector is on, the item runs inside an "item" span
    with "parse" and "lint" children (checking opens its own spans).
    [explain] (default [false]) turns on the oracle's verdict
    forensics: Forbid results carry validated explanations, at zero
    cost when off.  [deadline] (checking-as-a-service) arms the budget against
    an absolute deadline via {!Exec.Budget.start_at}, so time spent
    queued before this call counts against the item.

    Engine selection: the item is checked through [oracle] (default:
    {!Lkmm.oracle}) via {!Exec.Oracle.run} under the requested
    [backend] (default [Batch]; [Enum] is the scalar reference path;
    [Sat] runs the symbolic engine, falling back counted when the
    oracle ships none). *)
val run_item :
  ?limits:Exec.Budget.limits ->
  ?deadline:float ->
  ?lint:bool ->
  ?explain:bool ->
  ?backend:Exec.Check.backend ->
  ?oracle:Exec.Oracle.t ->
  item ->
  Report.entry

(** [run ?oracle items] — the whole batch, each item through
    {!run_item}, with the same oracle and backend defaults. *)
val run :
  ?limits:Exec.Budget.limits ->
  ?lint:bool ->
  ?explain:bool ->
  ?backend:Exec.Check.backend ->
  ?oracle:Exec.Oracle.t ->
  item list ->
  Report.t
