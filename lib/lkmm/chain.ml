(* The witness-dependent part of the LK model, written once: Figure 8
   from rfi-rel-acq to hb, Figure 12's pb, link, gp-link and rscs-link,
   and the step of the recursive rcu-path, each stated over an [algebra]
   so that one text serves the three engines — {!Rel} in
   [Relations.make], {!Rel.Batch} in [Relations.consistent_mask] (one
   algebra per stage, masked to the planes still live) and
   {!Exec.Solve.Sym} in [Symbolic.axioms].  The stages are the batched
   engine's: witness inputs, [hb] (with prop), [pb], then [links] and
   the rcu-path; an engine may stop after any of them.

   Composition is n-ary and each algebra folds it as its engine always
   has — left for {!Rel} and {!Rel.Batch}, right for the solver, where
   the fold fixes which auxiliary variables exist.  Variable-allocating
   operations run in the order the encoding has always used them (OCaml
   evaluates arguments right to left); keep the nesting when editing. *)

(* The witness-independent prefix, documented at {!Relations.static_ctx}. *)
type static_ctx = {
  acq_id : Rel.t; rel_id : Rel.t; s_acq_po : Rel.t; s_po_rel : Rel.t;
  s_rmb : Rel.t; s_wmb : Rel.t; s_mb : Rel.t; s_rb_dep : Rel.t;
  s_sync : Rel.Iset.t; s_gp : Rel.t; s_rscs : Rel.t; s_dep : Rel.t;
  s_rwdep : Rel.t; s_strong_fence : Rel.t; s_fence : Rel.t;
}

(* A relation algebra over representation ['r].  Static relations enter
   through [const]; intersection and difference are only ever taken
   with a static relation, which keeps the chain monotone in rf and co
   (the solver's encoding relies on it). *)
type 'r algebra = {
  const : Rel.t -> 'r;
  union : 'r -> 'r -> 'r;
  inter_const : 'r -> Rel.t -> 'r;
  diff_const : 'r -> Rel.t -> 'r;
  seq : 'r list -> 'r; (* n-ary composition, non-empty *)
  plus : 'r -> 'r;
  star : 'r -> 'r;
  opt : 'r -> 'r;
}

(* n-ary composition from a binary one: [(a ; b) ; c] and
   [a ; (b ; c)]. *)
let seq_left seq rs = List.fold_left seq (List.hd rs) (List.tl rs)

let seq_right seq rs =
  let rs = List.rev rs in
  List.fold_left (fun acc a -> seq a acc) (List.hd rs) (List.tl rs)

(* The dense-bitset algebra: the scalar engine's, and the one the
   solver's rcu-path tie-off computes its may/must fixpoints in. *)
let rel ~universe =
  {
    const = Fun.id;
    union = Rel.union;
    inter_const = Rel.inter;
    diff_const = Rel.diff;
    seq = seq_left Rel.seq;
    plus = Rel.transitive_closure;
    star = Rel.reflexive_transitive_closure ~universe;
    opt = Rel.reflexive_closure ~universe;
  }

(* The witness relations the chain is built on. *)
type 'r witness = { rfi : 'r; rfe : 'r; co : 'r; fr : 'r }

type 'r hb = {
  rfi_rel_acq : 'r; overwrite : 'r; to_w : 'r; rrdep : 'r; strong_rrdep : 'r;
  to_r : 'r; ppo : 'r; cumul_fence : 'r; prop : 'r; hb : 'r;
}

(* Figure 8, rfi-rel-acq to hb.  [x] supplies the static addr, int, ext
   and id relations of the structure. *)
let hb a (x : Exec.t) s w =
  let rfi_rel_acq = a.seq [ a.const s.rel_id; w.rfi; a.const s.acq_id ] in
  let overwrite = a.union w.co w.fr in
  let to_w = a.union (a.const s.s_rwdep) (a.inter_const overwrite x.int_r) in
  let rrdep = a.union (a.const x.addr) (a.seq [ a.const s.s_dep; w.rfi ]) in
  let strong_rrdep = a.inter_const (a.plus rrdep) s.s_rb_dep in
  let to_r = a.union strong_rrdep rfi_rel_acq in
  let ppo =
    a.seq
      [ a.star rrdep; a.union to_r (a.union to_w (a.const s.s_fence)) ]
  in
  (* A-cumul(r) := rfe? ; r *)
  let cumul_fence =
    a.union
      (a.seq
         [ a.opt w.rfe; a.const (Rel.union s.s_strong_fence s.s_po_rel) ])
      (a.const s.s_wmb)
  in
  let prop =
    a.seq
      [
        a.opt (a.inter_const overwrite x.ext_r);
        a.star cumul_fence;
        a.opt w.rfe;
      ]
  in
  let hb =
    a.union
      (a.inter_const (a.diff_const prop x.id_r) x.int_r)
      (a.union ppo w.rfe)
  in
  { rfi_rel_acq; overwrite; to_w; rrdep; strong_rrdep; to_r; ppo;
    cumul_fence; prop; hb }

type 'r pb = { hb_star : 'r; pb : 'r }

(* pb := prop ; strong-fence ; hb* *)
let pb a s ~prop ~hb =
  let hb_star = a.star hb in
  { hb_star; pb = a.seq [ prop; a.const s.s_strong_fence; hb_star ] }

type 'r links = { link : 'r; gp_link : 'r; rscs_link : 'r }

(* Figure 12: link := hb* ; pb* ; prop, and its gp and rscs prefixes. *)
let links a s ~hb_star ~pb ~prop =
  let link = a.seq [ hb_star; a.star pb; prop ] in
  let gp_link = a.seq [ a.const s.s_gp; link ] in
  let rscs_link = a.seq [ a.const s.s_rscs; link ] in
  { link; gp_link; rscs_link }

(* One application of the defining equation of [rec rcu-path]:
     gp-link | p;p | gp-link;rscs-link | rscs-link;gp-link
       | gp-link;p;rscs-link | rscs-link;p;gp-link *)
let rcu_step a ~gp_link ~rscs_link p =
  List.fold_left a.union gp_link
    [
      a.seq [ p; p ];
      a.seq [ gp_link; rscs_link ];
      a.seq [ rscs_link; gp_link ];
      a.seq [ gp_link; p; rscs_link ];
      a.seq [ rscs_link; p; gp_link ];
    ]

(* rcu-path, the least fixed point of [rcu_step] by Kleene iteration
   from gp-link; [tick] runs once per iteration. *)
let rcu_path ?(tick = ignore) a ~equal ~gp_link ~rscs_link =
  let rec go p =
    tick ();
    let next = rcu_step a ~gp_link ~rscs_link p in
    if equal next p then p else go next
  in
  go gp_link
