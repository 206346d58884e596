(** The model registry: every built-in consistency model, listed once
    with the names it answers to, its one display name, its checking
    oracle (engines and forensics together) and the tests it applies
    to.  The CLIs, the checking daemon, the campaign orchestrator and
    the sweeps resolve a model name here and nowhere else. *)

type t = {
  key : string;
      (** canonical key — the daemon's verdict-cache identity; a [.cat]
          model's path *)
  aliases : string list;  (** further names {!find} accepts *)
  name : string;  (** the display name, also the oracle's [name] *)
  oracle : Exec.Oracle.t Lazy.t;
      (** every engine the model ships plus its forensics, built on
          first use (force it before sharing across domains) *)
  applies : Litmus.Ast.t -> bool;
      (** the tests the model gives semantics to: C11 has no RCU *)
}

(** The native LK model: enum, batch and SAT engines; axiom-level
    forensics. *)
val lk : t

(** lk.cat on the cat interpreter (enum and batch engines). *)
val lk_cat : t

(** The native operational models, each explained by its shipped cat
    twin (sc.cat, tso.cat, c11.cat, c11-psc.cat). *)
val sc : t

val tso : t
val c11 : t
val c11_psc : t

(** [of_cat ~key ~name model] — an entry for a parsed cat model that
    applies everywhere. *)
val of_cat : key:string -> name:string -> Cat.model -> t

(** Every built-in, in help order. *)
val all : t list

(** [oracle t] forces [t]'s oracle. *)
val oracle : t -> Exec.Oracle.t

(** [verdict t test] — [t]'s verdict on [test] through its default
    engine; [None] where [t] does not apply. *)
val verdict : t -> Litmus.Ast.t -> Exec.Check.verdict option

(** The built-ins' names for help texts: ["lk (lkmm, linux), ..."]. *)
val names_doc : string

(** [find name] resolves [name] case-insensitively against every
    built-in's key and aliases; a name ending in [.cat] that names an
    existing file loads it as a cat model (parse errors raise, as
    {!Cat.load_file}).  Any other name is an [Error] listing the
    registered names. *)
val find : string -> (t, string) result
