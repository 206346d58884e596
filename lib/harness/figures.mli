(** Regenerating the paper's figures: each figure is a litmus test
    whose forbidden execution the LK model must reject (or, for
    Figure 14, an allowed test that C11 rejects).  The printer shows
    the test, the verdict, and — for forbidden tests — the structured
    explanation of each violated axiom ({!Exec.Explain.t}), mirroring
    the paper's cycle-by-cycle explanations. *)

type figure = {
  id : string;  (** e.g. "2", "4", ... *)
  entry : Battery.entry;
  caption : string;
}

val all : figure list

val pp_one : figure Fmt.t

(** Print every figure. *)
val pp : unit Fmt.t

(** For tests: one message per figure whose verdict does not match the
    paper; [[]] when all match. *)
val issues : unit -> string list
