(* The LK axioms (Figure 3 plus the RCU axiom of Figure 12) as CNF, for
   the symbolic backend: {!Chain}'s Figure 8/12 definitions instantiated
   over {!Exec.Solve.Sym} combinators on the symbolic witness relations.

   The static prefix is witness-independent, so it is taken — through
   {!Relations.static_cached} — from the representative execution the
   encoder provides, and enters the encoding as constant relations; only
   the dynamic remainder (rfi, rfe, overwrite, ppo, prop, hb, pb, the
   RCU path) becomes clauses.  Because the whole chain is monotone in rf
   and co and the axioms are negative, the support-only encoding is
   exact (see [lib/exec/solve.ml]); exactness against the scalar
   [Axioms.consistent] is what the corpus-agreement suite in
   [test/test_sat.ml] exercises.

   The recursive rcu-path is tied off concretely: its may- and
   must-projections are least fixpoints of {!Chain.rcu_step} computed
   in {!Rel}, and one variable per may-pair receives a support clause
   for every rule instance — the symbolic relation is then at least the
   concrete rcu-path of any assignment, which is exactly what the
   irreflexivity assertion needs. *)

module S = Exec.Solve
module Sym = Exec.Solve.Sym

(* The solver algebra: compositions fold right, as the encoding always
   has. *)
let algebra ctx =
  {
    Chain.const = Sym.const ctx;
    union = Sym.union ctx;
    inter_const = Sym.inter_const;
    diff_const = Sym.diff_const;
    seq = Chain.seq_right (Sym.seq ctx);
    plus = Sym.plus ctx;
    star = Sym.star ctx;
    opt = Sym.opt;
  }

(* Symbolic rcu-path: [T] at must-fixpoint pairs, a fresh variable at
   the remaining may-fixpoint pairs, with one support clause per rule
   instance over may-supported tuples. *)
let rcu_path ctx ~universe gp_link rscs_link =
  let lfp gp_link rscs_link =
    Chain.rcu_path (Chain.rel ~universe) ~equal:Rel.equal ~gp_link ~rscs_link
  in
  let may_g = Sym.may_of gp_link and may_r = Sym.may_of rscs_link in
  let may_p = lfp may_g may_r in
  let must_p = lfp (Sym.must_of gp_link) (Sym.must_of rscs_link) in
  let p = Sym.make ctx.S.n in
  Rel.iter
    (fun x y ->
      p.(x).(y) <- (if Rel.mem x y must_p then S.T else S.fresh ctx))
    may_p;
  let support body x z = S.clause ctx (List.map S.neg body @ [ p.(x).(z) ]) in
  (* gp-link <= p *)
  Rel.iter (fun x y -> support [ Sym.entry gp_link x y ] x y) may_g;
  (* p ; p <= p *)
  Rel.iter
    (fun x y ->
      Rel.iter
        (fun y' z -> if y = y' then support [ p.(x).(y); p.(y).(z) ] x z)
        may_p)
    may_p;
  (* gp-link ; rscs-link <= p  and symmetrically *)
  let seq2 a ma b mb =
    Rel.iter
      (fun x y ->
        Rel.iter
          (fun y' z ->
            if y = y' then support [ Sym.entry a x y; Sym.entry b y z ] x z)
          mb)
      ma
  in
  seq2 gp_link may_g rscs_link may_r;
  seq2 rscs_link may_r gp_link may_g;
  (* gp-link ; p ; rscs-link <= p  and symmetrically *)
  let seq3 a ma b mb =
    Rel.iter
      (fun x y ->
        Rel.iter
          (fun y' z ->
            if y = y' then
              Rel.iter
                (fun z' w ->
                  if z = z' then
                    support
                      [ Sym.entry a x y; p.(y).(z); Sym.entry b z w ]
                      x w)
                mb)
          may_p)
      ma
  in
  seq3 gp_link may_g rscs_link may_r;
  seq3 rscs_link may_r gp_link may_g;
  p

(* The axioms callback: Scpv is already asserted by the encoder (it
   doubles as the coherence prefilter), so this contributes At, Hb, Pb
   and Rcu. *)
let axioms (e : S.enc) =
  let ctx = e.S.ctx in
  let x = e.S.rep in
  let s = Relations.static_cached x in
  let rf = e.S.rf and co = e.S.co and fr = e.S.fr in
  let rfi = Sym.inter_const rf x.Exec.int_r in
  let rfe = Sym.inter_const rf x.Exec.ext_r in
  let fre = Sym.inter_const fr x.Exec.ext_r in
  let coe = Sym.inter_const co x.Exec.ext_r in
  (* At: empty (rmw & (fre ; coe)) *)
  Sym.assert_empty ctx (Sym.inter_const (Sym.seq ctx fre coe) x.Exec.rmw);
  let a = algebra ctx in
  let h = Chain.hb a x s { rfi; rfe; co; fr } in
  (* Hb: acyclic hb *)
  Sym.assert_acyclic ctx h.hb;
  (* Pb and Rcu both vanish without a strong fence: pb has a
     strong-fence factor, and gp (hence gp-link, hence rcu-path) is a
     sub-relation of one. *)
  if not (Rel.is_empty s.s_strong_fence) then begin
    let p = Chain.pb a s ~prop:h.prop ~hb:h.hb in
    (* Pb: acyclic pb *)
    Sym.assert_acyclic ctx p.pb;
    if not (Rel.is_empty s.s_gp) then begin
      let l = Chain.links a s ~hb_star:p.hb_star ~pb:p.pb ~prop:h.prop in
      (* Rcu: irreflexive rcu-path *)
      Sym.assert_irreflexive ctx
        (rcu_path ctx ~universe:x.Exec.universe l.gp_link l.rscs_link)
    end
  end
