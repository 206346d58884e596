(* Interpreter for the cat subset: evaluates a model's statements against
   the base relations of candidate executions, in the style of the herd
   simulator — one candidate at a time, or up to 63 candidates sharing
   one event structure at once, their witness relations stacked into bit
   planes ({!Rel.Batch}).

   One evaluator serves both.  A [Vset] or [Vrel] is identical in every
   candidate of the environment; a [Vplanes] varies per candidate.  An
   operator stays on the scalar kernel while its operands do, and
   broadcasts a scalar operand into the live planes ([env.mask]) only
   where it meets a [Vplanes] one.  A single candidate is the plane-free
   case: its environment holds no [Vplanes] (and [mask = 1]), so it never
   leaves [Rel].

   The value domain is total for the supported dialect: the language has
   no relation-to-set operator, so a per-candidate value is always
   relation-valued, and a set position ([Bracket], [Cartesian]) rejects
   a [Vplanes] with the same {!Type_error} it gives any relation. *)

module Iset = Rel.Iset
module B = Rel.Batch

type value =
  | Vset of Iset.t
  | Vrel of Rel.t
  | Vplanes of B.t
  | Vfun of string list * Ast.expr * env

and env = {
  universe : Iset.t;
  n : int; (* events per candidate: the shared universe size *)
  mask : int; (* planes still undecided; broadcasts target these *)
  bindings : (string * value) list;
}

exception Type_error of string

let lookup env x =
  match List.assoc_opt x env.bindings with
  | Some v -> v
  | None -> raise (Type_error ("unbound identifier " ^ x))

let bind env x v = { env with bindings = (x, v) :: env.bindings }

(* Sets appearing where a relation is expected become identities, the
   usual [S] coercion. *)
let as_rel = function
  | Vrel r -> r
  | Vset s -> Rel.id_of_set s
  | Vplanes _ -> invalid_arg "Interp.as_rel: per-candidate relation"
  | Vfun _ -> raise (Type_error "function used as a relation")

let as_set = function
  | Vset s -> s
  | Vrel _ | Vplanes _ -> raise (Type_error "relation used as a set")
  | Vfun _ -> raise (Type_error "function used as a set")

(* A relation operand in plane form: a scalar one is broadcast into the
   live planes. *)
let planes env = function
  | Vplanes p -> p
  | v -> B.broadcast ~n:env.n ~mask:env.mask (as_rel v)

let unary rel plane = function
  | Vplanes p -> Vplanes (plane p)
  | v -> Vrel (rel (as_rel v))

let binary env ?set rel plane v1 v2 =
  match (v1, v2, set) with
  | Vset s1, Vset s2, Some f -> Vset (f s1 s2)
  | Vplanes _, _, _ | _, Vplanes _, _ ->
      Vplanes (plane (planes env v1) (planes env v2))
  | _ -> Vrel (rel (as_rel v1) (as_rel v2))

let rec eval env (e : Ast.expr) =
  let bin ?set rel plane a b =
    binary env ?set rel plane (eval env a) (eval env b)
  in
  match e with
  | Ast.Id x -> lookup env x
  | Ast.Empty_rel -> Vrel Rel.empty
  | Ast.Union (a, b) -> bin ~set:Iset.union Rel.union B.union a b
  | Ast.Inter (a, b) -> bin ~set:Iset.inter Rel.inter B.inter a b
  | Ast.Diff (a, b) -> bin ~set:Iset.diff Rel.diff B.diff a b
  | Ast.Seq (a, b) -> bin Rel.seq B.seq a b
  | Ast.Cartesian (a, b) ->
      Vrel (Rel.cartesian (as_set (eval env a)) (as_set (eval env b)))
  | Ast.Inverse a -> unary Rel.inverse B.inverse (eval env a)
  | Ast.Plus a ->
      unary Rel.transitive_closure B.transitive_closure (eval env a)
  | Ast.Star a ->
      unary
        (Rel.reflexive_transitive_closure ~universe:env.universe)
        (B.reflexive_transitive_closure ~mask:env.mask)
        (eval env a)
  | Ast.Opt a ->
      unary
        (Rel.reflexive_closure ~universe:env.universe)
        (B.reflexive_closure ~mask:env.mask)
        (eval env a)
  | Ast.Complement a -> (
      match eval env a with
      | Vset s -> Vset (Iset.diff env.universe s)
      | v ->
          unary
            (Rel.complement ~universe:env.universe)
            (B.complement ~mask:env.mask) v)
  | Ast.Bracket a -> Vrel (Rel.id_of_set (as_set (eval env a)))
  | Ast.App (f, arg) -> (
      match lookup env f with
      | Vfun ([ p ], body, closure) ->
          (* the body runs under the caller's planes: a static function
             from the prefix closes over a single candidate's
             environment, and broadcasting under its mask would drop
             every other plane *)
          eval { env with bindings = (p, eval env arg) :: closure.bindings }
            body
      | Vfun (ps, _, _) ->
          raise
            (Type_error
               (Printf.sprintf "%s expects %d arguments" f (List.length ps)))
      | _ -> raise (Type_error (f ^ " is not a function")))

(* Evaluate one let group; recursive groups are solved by Kleene iteration
   from empty relations (cat's rec is a least fixed point of monotone
   equations) until every plane converges.  [?budget] bounds the
   iteration wall-clock: each Kleene step probes the deadline, so a
   pathological model gives up instead of spinning its full 1000-round
   allowance on big relations. *)

let c_fixpoint = Obs.Counter.make "cat.fixpoint_iters"

let value_equal env v1 v2 =
  match (v1, v2) with
  | Vplanes _, _ | _, Vplanes _ -> B.equal (planes env v1) (planes env v2)
  | _ -> Rel.equal (as_rel v1) (as_rel v2)

let eval_let ?budget env bindings is_rec =
  if not is_rec then
    List.fold_left
      (fun env' (name, params, body) ->
        match params with
        | [] -> bind env' name (eval env body)
        | ps -> bind env' name (Vfun (ps, body, env)))
      env bindings
  else begin
    let names = List.map (fun (n, _, _) -> n) bindings in
    let start =
      List.fold_left (fun e n -> bind e n (Vrel Rel.empty)) env names
    in
    let step e =
      List.fold_left
        (fun acc (name, params, body) ->
          if params <> [] then
            raise (Type_error "recursive functions are not supported");
          bind acc name (eval e body))
        e bindings
    in
    let values e = List.map (lookup e) names in
    let rec go e n =
      if n > 1000 then raise (Type_error "rec definition did not converge");
      Option.iter Exec.Budget.check_time budget;
      Obs.Counter.incr c_fixpoint;
      let e' = step e in
      (* [n + 1], not [n]: the round counter must actually advance for the
         1000-round allowance to mean anything (an unbudgeted divergent
         model previously looped forever here) *)
      if List.for_all2 (value_equal env) (values e) (values e') then e'
      else go e' (n + 1)
    in
    go start 0
  end

(* One check, decided for every live plane at once: the planes of
   [env.mask] where it holds. *)
let check env kind e =
  let all holds = if holds then env.mask else 0 in
  match (kind, eval env e) with
  | Ast.Acyclic, Vplanes p -> B.acyclic_mask ~mask:env.mask p
  | Ast.Irreflexive, Vplanes p -> B.irreflexive_mask ~mask:env.mask p
  | Ast.Is_empty, Vplanes p -> B.empty_mask ~mask:env.mask p
  | Ast.Acyclic, v -> all (Rel.is_acyclic (as_rel v))
  | Ast.Irreflexive, v -> all (Rel.is_irreflexive (as_rel v))
  | Ast.Is_empty, Vset s -> all (Iset.is_empty s)
  | Ast.Is_empty, v -> all (Rel.is_empty (as_rel v))

type outcome = { check_name : string; kind : Ast.check_kind; holds : bool }

(* Run all statements; returns the outcome of every constraint.  With a
   budget, the deadline is probed between statements and inside recursive
   fixpoints (raising {!Exec.Budget.Exceeded}). *)
let run ?budget (model : Ast.t) env =
  let rec go env acc = function
    | [] -> List.rev acc
    | Ast.Let (bs, is_rec) :: rest ->
        Option.iter Exec.Budget.tick budget;
        go (eval_let ?budget env bs is_rec) acc rest
    | Ast.Check (kind, e, name) :: rest ->
        Option.iter Exec.Budget.tick budget;
        let o =
          {
            check_name = Option.value ~default:"(unnamed)" name;
            kind;
            holds = check env kind e <> 0;
          }
        in
        go env (o :: acc) rest
  in
  go env [] model.stmts

(* ------------------------------------------------------------------ *)
(* Static-prefix evaluation                                            *)
(* ------------------------------------------------------------------ *)

(* Candidate executions of one litmus test share their event structure
   (events, po, addr, data, ctrl, rmw and every predefined set) across
   all rf/co witnesses; only rf, co and their derivatives change.  A
   binding whose free identifiers never reach a witness-dependent name
   therefore has the same value for every candidate, and can be computed
   once per event structure instead of once per candidate.

   [compile] finds those bindings, once per model: a statement is static
   iff every free identifier of its bodies is static at that program
   point, starting from the predefined environment minus the witness
   relations, and tracking shadowing (rebinding a name with a dynamic
   definition makes later uses dynamic).  [prefix] evaluates the static
   statements against one candidate's environment; [run_with_prefix]
   then replays the statement list in source order, pulling static
   bindings and static check outcomes from the prefix and evaluating
   only the dynamic remainder, so results are identical to {!run}. *)

module Sset = Set.Make (String)

(* The predefined relations that depend on the execution witness. *)
let witness_rels =
  [
    ("rf", fun x -> x.Exec.rf);
    ("co", fun x -> x.Exec.co);
    ("fr", fun x -> x.Exec.fr);
    ("rfi", fun x -> x.Exec.rfi);
    ("rfe", fun x -> x.Exec.rfe);
    ("coi", fun x -> x.Exec.coi);
    ("coe", fun x -> x.Exec.coe);
    ("fri", fun x -> x.Exec.fri);
    ("fre", fun x -> x.Exec.fre);
    ("com", fun x -> x.Exec.com);
  ]

let witness_names = List.map fst witness_rels

(* Every other predefined name is a function of the event structure. *)
let structural_names =
  [
    "_"; "W"; "R"; "M"; "F"; "IW"; "Once"; "Acquire"; "Release"; "Rmb";
    "Wmb"; "Mb"; "Rb-dep"; "Sync"; "Rcu-lock"; "Rcu-unlock"; "po"; "addr";
    "data"; "ctrl"; "rmw"; "po-loc"; "loc"; "int"; "ext"; "id"; "crit";
  ]

let rec free_ids acc = function
  | Ast.Id x -> Sset.add x acc
  | Ast.Empty_rel -> acc
  | Ast.Union (a, b) | Ast.Inter (a, b) | Ast.Diff (a, b) | Ast.Seq (a, b)
  | Ast.Cartesian (a, b) ->
      free_ids (free_ids acc a) b
  | Ast.Inverse a | Ast.Plus a | Ast.Star a | Ast.Opt a | Ast.Complement a
  | Ast.Bracket a ->
      free_ids acc a
  | Ast.App (f, arg) -> free_ids (Sset.add f acc) arg

type compiled = {
  model : Ast.t;
  static_stmt : bool array; (* per statement, in source order *)
  last_check : int; (* index of the final check, or -1 *)
}

let compile (model : Ast.t) =
  let static_stmt = Array.make (List.length model.stmts) false in
  let static = ref (Sset.of_list structural_names) in
  let last_check = ref (-1) in
  List.iteri
    (fun i stmt ->
      match stmt with
      | Ast.Let (bs, is_rec) ->
          let names = List.map (fun (n, _, _) -> n) bs in
          let stmt_static =
            List.for_all
              (fun (_, params, body) ->
                let frees = free_ids Sset.empty body in
                let frees =
                  List.fold_right Sset.remove params
                    (if is_rec then List.fold_right Sset.remove names frees
                     else frees)
                in
                Sset.subset frees !static)
              bs
          in
          static_stmt.(i) <- stmt_static;
          static :=
            List.fold_left
              (fun s n ->
                if stmt_static then Sset.add n s else Sset.remove n s)
              !static names
      | Ast.Check (_, e, _) ->
          last_check := i;
          static_stmt.(i) <- Sset.subset (free_ids Sset.empty e) !static)
    model.stmts;
  { model; static_stmt; last_check = !last_check }

type prefix = {
  compiled : compiled;
  lets : (string * value) list array;
      (* for a static Let at index i: its bindings, innermost first *)
  holds : bool array; (* for a static Check at index i: its outcome *)
}

let rec first_n n l =
  if n = 0 then []
  else
    match l with
    | x :: rest -> x :: first_n (n - 1) rest
    | [] -> invalid_arg "first_n"

let prefix ?budget compiled env =
  Obs.with_span "prefix-eval" (fun () ->
      let n = List.length compiled.model.stmts in
      let lets = Array.make n [] and holds = Array.make n false in
      let env = ref env in
      List.iteri
        (fun i stmt ->
          if compiled.static_stmt.(i) then begin
            Option.iter Exec.Budget.tick budget;
            match stmt with
            | Ast.Let (bs, is_rec) ->
                let before = List.length !env.bindings in
                env := eval_let ?budget !env bs is_rec;
                lets.(i) <-
                  first_n (List.length !env.bindings - before) !env.bindings
            | Ast.Check (kind, e, _) -> holds.(i) <- check !env kind e <> 0
          end)
        compiled.model.stmts;
      { compiled; lets; holds })

let c_batch_early = Obs.Counter.make "cat.batch.early_exit"

(* Replay the statement list: static lets and checks come from the
   prefix, the dynamic remainder is evaluated.  Returns the planes of
   [env.mask] satisfying every check.  Statements are never skipped — a
   model that raises [Type_error] on one candidate raises on a batch
   holding it too — but the live mask shrinks as checks fail, so later
   broadcasts and closures stop paying for decided planes (they zero
   out, and the kernels skip zero words).  A batch narrowed before its
   final check counts as an early exit. *)
let run_with_prefix ?budget { compiled; lets; holds } env =
  let batch =
    List.exists (function _, Vplanes _ -> true | _ -> false) env.bindings
  in
  let rec go i env = function
    | [] -> env.mask
    | Ast.Let (bs, is_rec) :: rest ->
        let env =
          if compiled.static_stmt.(i) then
            List.fold_right (fun (n, v) e -> bind e n v) lets.(i) env
          else begin
            Option.iter Exec.Budget.tick budget;
            eval_let ?budget env bs is_rec
          end
        in
        go (i + 1) env rest
    | Ast.Check (kind, e, _) :: rest ->
        let m =
          if compiled.static_stmt.(i) then if holds.(i) then env.mask else 0
          else begin
            Option.iter Exec.Budget.tick budget;
            check env kind e
          end
        in
        if batch && m <> env.mask && i <> compiled.last_check then
          Obs.Counter.incr c_batch_early;
        go (i + 1) { env with mask = m } rest
  in
  go 0 env compiled.model.stmts

(* ------------------------------------------------------------------ *)
(* The predefined environment of candidate executions                  *)
(* ------------------------------------------------------------------ *)

let structural_bindings (x : Exec.t) =
  let set p = Exec.events_where x p in
  let annot a = set (fun e -> e.Exec.Event.annot = a) in
  [
    ("_", Vset x.universe);
    ("W", Vset x.writes);
    ("R", Vset x.reads);
    ("M", Vset x.mem);
    ("F", Vset x.fences);
    ("IW", Vset x.init_ws);
    ("Once", Vset (annot Exec.Event.Once));
    ("Acquire", Vset (annot Exec.Event.Acquire));
    ("Release", Vset (annot Exec.Event.Release));
    ("Rmb", Vset (annot Exec.Event.Rmb));
    ("Wmb", Vset (annot Exec.Event.Wmb));
    ("Mb", Vset (annot Exec.Event.Mb));
    ("Rb-dep", Vset (annot Exec.Event.Rb_dep));
    ("Sync", Vset (annot Exec.Event.Sync_rcu));
    ("Rcu-lock", Vset (annot Exec.Event.Rcu_lock));
    ("Rcu-unlock", Vset (annot Exec.Event.Rcu_unlock));
    ("po", Vrel x.po);
    ("addr", Vrel x.addr);
    ("data", Vrel x.data);
    ("ctrl", Vrel x.ctrl);
    ("rmw", Vrel x.rmw);
    ("po-loc", Vrel x.po_loc);
    ("loc", Vrel x.loc_r);
    ("int", Vrel x.int_r);
    ("ext", Vrel x.ext_r);
    ("id", Vrel x.id_r);
    ("crit", Vrel x.crit);
  ]

let env_of_execution (x : Exec.t) =
  {
    universe = x.universe;
    n = Array.length x.events;
    mask = 1;
    bindings =
      List.map (fun (nm, f) -> (nm, Vrel (f x))) witness_rels
      @ structural_bindings x;
  }

(* Up to 63 candidates of one event structure: structural bindings from
   candidate 0 (identical in every candidate by construction), the
   witness relations stacked into candidate-major bit planes. *)
let env_of_executions ~mask (xs : Exec.t array) =
  let x0 = xs.(0) in
  let n = Array.length x0.Exec.events in
  {
    universe = x0.universe;
    n;
    mask;
    bindings =
      List.map
        (fun (nm, f) -> (nm, Vplanes (B.of_rels ~n ~mask (Array.map f xs))))
        witness_rels
      @ structural_bindings x0;
  }
