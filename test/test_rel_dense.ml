(* Differential tests: the dense bitset kernel ({!Rel}) against the
   retained pair-set specification ({!Rel.Reference}), operator by
   operator, on randomized relations — plus end-to-end agreement checks
   on a corpus sample (verdicts with the coherence prefilter and the
   static-prefix cache on and off), and the soundness argument for the
   prefilter made executable: candidates it rejects never satisfy the
   model.

   The candidate-major bit-plane kernel ({!Rel.Batch}) gets the same
   treatment: every batched operator and decision mask against a scalar
   loop over the planes, randomized over universe size, plane count and
   mask — plus corpus-wide agreement of {!Exec.Oracle.run} results and
   allowed outcomes between the Enum and Batch engines × prefilter
   on/off, for the native LKMM and the cat interpreter (witness identity
   included, not just verdicts), and a contract that the layer counters
   the benchmark reads keep moving.

   Trial tally: the operator suite alone draws 2 relations per trial ×
   4000 trials, the closure/sort/cycle suites another 2000 + 2000 +
   500, and the batch suite 2 × 1500 trials of up to 63 planes each
   (~40k plane comparisons) — comfortably over the 10k randomized
   relations the acceptance criteria ask for. *)

module D = Rel
module S = Rel.Reference
module Iset = Rel.Iset

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* (universe size, pairs1, pairs2): ids in [0, n).  Sizes cross word
   boundaries of the 63-bit rows at n = 64+. *)
let gen_input =
  let open QCheck2.Gen in
  let* n = oneofl [ 3; 6; 13; 24; 64; 70 ] in
  let pair = tup2 (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
  let pairs = list_size (int_range 0 (2 * n)) pair in
  tup3 (return n) pairs pairs

let agree d s = D.to_list d = S.to_list s

(* ------------------------------------------------------------------ *)
(* Operator-by-operator agreement                                      *)
(* ------------------------------------------------------------------ *)

let prop_ops_agree =
  QCheck2.Test.make ~name:"every operator agrees with the reference"
    ~count:4000 gen_input (fun (n, ps1, ps2) ->
      let d1 = D.of_list ps1 and d2 = D.of_list ps2 in
      let s1 = S.of_list ps1 and s2 = S.of_list ps2 in
      let u = Iset.of_range 0 (n - 1) in
      let half = Iset.of_range 0 (n / 2) in
      let p a b = (a + b) mod 2 = 0 in
      agree d1 s1 && agree d2 s2
      && D.cardinal d1 = S.cardinal s1
      && D.is_empty d1 = S.is_empty s1
      && D.equal d1 d2 = S.equal s1 s2
      && D.subset d1 d2 = S.subset s1 s2
      && D.mem 0 (n - 1) d1 = S.mem 0 (n - 1) s1
      && agree (D.add (n - 1) 0 d1) (S.add (n - 1) 0 s1)
      && agree (D.union d1 d2) (S.union s1 s2)
      && agree (D.inter d1 d2) (S.inter s1 s2)
      && agree (D.diff d1 d2) (S.diff s1 s2)
      && agree (D.seq d1 d2) (S.seq s1 s2)
      && agree (D.seqs [ d1; d2; d1 ]) (S.seqs [ s1; s2; s1 ])
      && agree (D.inverse d1) (S.inverse s1)
      && agree (D.filter p d1) (S.filter p s1)
      && D.exists p d1 = S.exists p s1
      && D.for_all p d1 = S.for_all p s1
      && Iset.equal (D.domain d1) (S.domain s1)
      && Iset.equal (D.range d1) (S.range s1)
      && Iset.equal (D.field d1) (S.field s1)
      && agree (D.id_of_set half) (S.id_of_set half)
      && agree (D.cartesian half u) (S.cartesian half u)
      && agree (D.restrict_domain half d1) (S.restrict_domain half s1)
      && agree (D.restrict_range half d1) (S.restrict_range half s1)
      && agree (D.restrict half d1) (S.restrict half s1)
      && agree (D.complement ~universe:u d1) (S.complement ~universe:u s1)
      && D.fold (fun a b acc -> (a, b) :: acc) d1 []
         = S.fold (fun a b acc -> (a, b) :: acc) s1 [])

let prop_closures_agree =
  QCheck2.Test.make ~name:"closures agree with the reference" ~count:2000
    gen_input (fun (n, ps1, _) ->
      let d = D.of_list ps1 and s = S.of_list ps1 in
      let u = Iset.of_range 0 (n - 1) in
      agree (D.transitive_closure d) (S.transitive_closure s)
      && agree (D.reflexive_closure ~universe:u d)
           (S.reflexive_closure ~universe:u s)
      && agree
           (D.reflexive_transitive_closure ~universe:u d)
           (S.reflexive_transitive_closure ~universe:u s))

let prop_cyclicity_agrees =
  QCheck2.Test.make ~name:"acyclicity, cycles and sorts agree" ~count:2000
    gen_input (fun (n, ps1, _) ->
      let d = D.of_list ps1 and s = S.of_list ps1 in
      let u = Iset.of_range 0 (n - 1) in
      D.is_acyclic d = S.is_acyclic s
      && D.is_irreflexive d = S.is_irreflexive s
      (* both return a *shortest* cycle; the witness may differ, its
         length may not *)
      && Option.map List.length (D.find_cycle d)
         = Option.map List.length (S.find_cycle s)
      && D.topological_sort ~universe:u d = S.topological_sort ~universe:u s)

(* The bulk builder against the reference's pair-by-pair one, on
   predicates drawn as random pair sets (and their complements, so dense
   relations crossing row words are covered too). *)
let prop_init_agrees =
  QCheck2.Test.make ~name:"init agrees with the reference" ~count:2000
    gen_input (fun (n, ps1, _) ->
      let s = S.of_list ps1 in
      let p x y = S.mem x y s in
      let q x y = not (p x y) in
      agree (D.init n p) (S.init n p)
      && agree (D.init n q) (S.init n q)
      && D.equal (D.init n p) (D.of_list ps1)
      && agree (D.init 0 q) S.empty)

let prop_linear_extensions_agree =
  QCheck2.Test.make ~name:"linear extensions agree (incl. duplicates)"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 4) (int_range 0 3))
    (fun elems ->
      let sort = List.sort compare in
      sort (List.map D.to_list (D.linear_extensions elems))
      = sort (List.map S.to_list (S.linear_extensions elems)))

(* ------------------------------------------------------------------ *)
(* The bit-plane batch kernel against a scalar loop                    *)
(* ------------------------------------------------------------------ *)

module B = Rel.Batch

(* (universe size, plane count, mask, per-plane pairs ×2): universes at
   litmus scale (the kernel packs candidates, not big universes), plane
   counts up to the full word including the k = 63 [full_mask] edge
   case, and a random submask so masked variants are exercised with
   decided planes present. *)
let gen_batch_input =
  let open QCheck2.Gen in
  let* n = oneofl [ 2; 5; 9; 14 ] in
  let* k = oneofl [ 1; 2; 3; 7; 20; 62; 63 ] in
  let* mask_bits = int_bound ((1 lsl min k 30) - 1) in
  let mask = B.full_mask k land lnot mask_bits in
  let pair = tup2 (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
  let pairs = list_size (int_range 0 (2 * n)) pair in
  let plane_list = list_repeat k pairs in
  tup5 (return n) (return k) (return mask) plane_list plane_list

(* Expected mask of a per-plane predicate, by scalar loop. *)
let mask_of k pred rels =
  let m = ref 0 in
  for c = 0 to k - 1 do
    if pred rels.(c) then m := !m lor (1 lsl c)
  done;
  !m

let prop_batch_ops_agree =
  QCheck2.Test.make ~name:"batched operators agree with a scalar loop"
    ~count:1500 gen_batch_input (fun (n, k, _mask, pls1, pls2) ->
      let rels1 = Array.of_list (List.map D.of_list pls1) in
      let rels2 = Array.of_list (List.map D.of_list pls2) in
      let b1 = B.of_rels ~n rels1 and b2 = B.of_rels ~n rels2 in
      let u = Iset.of_range 0 (n - 1) in
      let full = B.full_mask k in
      (* a batched op agrees iff every plane extracts to the scalar
         op's result on that plane's inputs *)
      let planes_agree b f =
        let ok = ref true in
        for c = 0 to k - 1 do
          ok := !ok && D.equal (B.plane b c) (f rels1.(c) rels2.(c))
        done;
        !ok
      in
      planes_agree b1 (fun r _ -> r)
      && planes_agree (B.union b1 b2) D.union
      && planes_agree (B.inter b1 b2) D.inter
      && planes_agree (B.diff b1 b2) D.diff
      && planes_agree (B.seq b1 b2) D.seq
      && planes_agree (B.inverse b1) (fun r _ -> D.inverse r)
      && planes_agree (B.transitive_closure b1) (fun r _ ->
             D.transitive_closure r)
      && planes_agree
           (B.reflexive_closure ~mask:full b1)
           (fun r _ -> D.reflexive_closure ~universe:u r)
      && planes_agree
           (B.reflexive_transitive_closure ~mask:full b1)
           (fun r _ -> D.reflexive_transitive_closure ~universe:u r)
      && planes_agree (B.complement ~mask:full b1) (fun r _ ->
             D.complement ~universe:u r)
      && B.equal b1 b2 = Array.for_all2 D.equal rels1 rels2)

let prop_batch_masks_agree =
  QCheck2.Test.make ~name:"batched decision masks agree with a scalar loop"
    ~count:1500 gen_batch_input (fun (n, k, mask, pls1, _pls2) ->
      let rels1 = Array.of_list (List.map D.of_list pls1) in
      let b1 = B.of_rels ~n rels1 in
      let bm = B.of_rels ~n ~mask rels1 in
      let is_cyclic r = not (D.is_acyclic r) in
      let is_reflexive r = not (D.is_irreflexive r) in
      (* unmasked decision masks *)
      B.nonempty_mask b1 = mask_of k (fun r -> not (D.is_empty r)) rels1
      && B.reflexive_mask b1 = mask_of k is_reflexive rels1
      && B.cyclic_mask b1 = mask_of k is_cyclic rels1
      (* masked variants answer within the mask only *)
      && B.acyclic_mask ~mask b1 = mask land mask_of k D.is_acyclic rels1
      && B.irreflexive_mask ~mask b1
         = mask land mask_of k D.is_irreflexive rels1
      && B.empty_mask ~mask b1 = mask land mask_of k D.is_empty rels1
      (* of_rels ~mask keeps only the masked planes *)
      && (let ok = ref true in
          for c = 0 to k - 1 do
            let expect =
              if mask land (1 lsl c) <> 0 then rels1.(c) else D.empty
            in
            ok := !ok && D.equal (B.plane bm c) expect
          done;
          !ok)
      (* restrict zeroes planes outside the mask *)
      && (let r = B.restrict ~mask b1 in
          let ok = ref true in
          for c = 0 to k - 1 do
            let expect =
              if mask land (1 lsl c) <> 0 then rels1.(c) else D.empty
            in
            ok := !ok && D.equal (B.plane r c) expect
          done;
          !ok)
      (* broadcast holds the relation in masked planes only *)
      && (let r0 = if Array.length rels1 > 0 then rels1.(0) else D.empty in
          let b = B.broadcast ~n ~mask r0 in
          let ok = ref true in
          for c = 0 to k - 1 do
            let expect = if mask land (1 lsl c) <> 0 then r0 else D.empty in
            ok := !ok && D.equal (B.plane b c) expect
          done;
          !ok)
      (* mem answers per plane *)
      && B.mem 0 (n - 1) b1 = mask_of k (D.mem 0 (n - 1)) rels1)

(* ------------------------------------------------------------------ *)
(* Corpus sample: end-to-end agreement and prefilter soundness         *)
(* ------------------------------------------------------------------ *)

let corpus_dir =
  (* tests run from _build/default/test *)
  List.find_opt Sys.file_exists [ "../../../corpus"; "corpus" ]

(* Every [stride]-th manifest entry — a fixed, spread-out sample. *)
let sample_tests stride =
  match corpus_dir with
  | None -> Alcotest.fail "corpus directory not found"
  | Some dir ->
      Harness.Runner.read_file (Filename.concat dir "MANIFEST")
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.filteri (fun i _ -> i mod stride = 0)
      |> List.map (fun line ->
             let file = List.hd (String.split_on_char ' ' line) in
             ( file,
               Litmus.parse (Harness.Runner.read_file (Filename.concat dir file))
             ))

let result_key (r : Exec.Check.result) =
  (r.verdict, r.n_candidates, r.n_consistent, r.n_matching, r.outcomes)

let cat_oracle = lazy (Cat.to_oracle ~name:"LK(cat)" (Lazy.force Cat.lk))

(* The uncached cat reference: the direct interpreter, no static prefix. *)
module Cat_plain = struct
  let name = "LK(cat)"
  let consistent x = Cat.consistent (Lazy.force Cat.lk) x
end

let enum = Exec.Check.Enum
and batch = Exec.Check.Batch

(* The prefilter and the cat prefix cache must be invisible in the
   results (only n_prefiltered differs by construction, so compare
   everything else). *)
let test_corpus_agreement () =
  let cat = Lazy.force cat_oracle in
  List.iter
    (fun (file, test) ->
      let native_on = Exec.Oracle.run ~backend:enum Lkmm.oracle test in
      let native_off =
        Exec.Oracle.run ~prefilter:false ~backend:enum Lkmm.oracle test
      in
      Alcotest.(check bool)
        (file ^ ": native verdicts agree with prefilter off")
        true
        (result_key native_on = result_key native_off
        && native_off.n_prefiltered = 0);
      let cat_cached = Exec.Oracle.run ~backend:enum cat test in
      let cat_plain = Exec.Check.run (module Cat_plain) test in
      Alcotest.(check bool)
        (file ^ ": cat verdicts agree with static-prefix cache off")
        true
        (result_key cat_cached = result_key cat_plain);
      Alcotest.(check bool)
        (file ^ ": native and cat verdicts agree")
        true
        (native_on.verdict = cat_cached.verdict))
    (sample_tests 11)

(* Batched evaluation must be invisible in the results, down to witness
   identity — the correctness contract of the batched path.  Exercised
   through each oracle's Enum and Batch engines × prefilter on/off, for
   the native axioms and the cat interpreter. *)
let witness_rels (x : Exec.t option) =
  Option.map (fun (x : Exec.t) -> (Rel.to_list x.rf, Rel.to_list x.co)) x

let full_key (r : Exec.Check.result) =
  (result_key r, r.n_prefiltered, witness_rels r.witness)

let oracles () = [ ("native", Lkmm.oracle); ("cat", Lazy.force cat_oracle) ]

let test_batched_agreement () =
  List.iter
    (fun (file, test) ->
      List.iter
        (fun (what, oracle) ->
          List.iter
            (fun prefilter ->
              let what =
                if prefilter then what else what ^ ", prefilter off"
              in
              let scalar = Exec.Oracle.run ~prefilter ~backend:enum oracle test
              and batched =
                Exec.Oracle.run ~prefilter ~backend:batch oracle test
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s agrees batched vs scalar" file what)
                true
                (full_key scalar = full_key batched
                && scalar.backend = enum && batched.backend = batch))
            [ true; false ])
        (oracles ()))
    (sample_tests 11)

(* The batched all-outcomes path (what the hardware-soundness checks
   use by default) against the scalar one, on the same sample. *)
let test_allowed_outcomes_agreement () =
  List.iter
    (fun (file, test) ->
      List.iter
        (fun (what, oracle) ->
          let scalar = Exec.Oracle.allowed_outcomes ~backend:enum oracle test
          and batched =
            Exec.Oracle.allowed_outcomes ~backend:batch oracle test
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s allowed outcomes agree batched vs scalar"
               file what)
            true (scalar = batched && scalar <> []))
        (oracles ()))
    (sample_tests 11)

(* The layer counters the benchmark reads must keep moving: a batched
   check flushes planes (and the cat one hits and misses its prefix
   cache), the native kernel and the cat replay exit planes early, and
   the scalar engine touches no batch counter.  MP+locks has event
   structures with more candidates than one flush holds, so the batched
   cat engine meets a structure again and hits its prefix slot. *)
let test_counter_contract () =
  let value name = Obs.Counter.value (Obs.Counter.make name) in
  let occupancy () =
    (Obs.hist_snapshot (Obs.Histogram.make "check.batch.occupancy")).Obs.h_count
  in
  let moved names f =
    let before = List.map value names in
    f ();
    List.map2 (fun n b -> (n, value n - b)) names before
  in
  let test = Harness.Battery.test_of (Harness.Battery.find "MP+locks") in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun (what, oracle) ->
          let occ = occupancy () in
          let deltas =
            moved
              [ "check.batch.flushes"; "cat.cache.hits"; "cat.cache.misses" ]
              (fun () ->
                ignore (Exec.Oracle.run ~backend:batch oracle test))
          in
          List.iter
            (fun (n, d) ->
              if n = "check.batch.flushes" || what = "cat" then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: Batch check moves %s" what n)
                  true (d > 0))
            deltas;
          Alcotest.(check bool)
            (what ^ ": Batch check moves check.batch.occupancy")
            true
            (occupancy () > occ);
          let occ = occupancy () in
          let deltas =
            moved [ "check.batch.flushes" ] (fun () ->
                ignore (Exec.Oracle.run ~backend:enum oracle test))
          in
          Alcotest.(check (list (pair string int)))
            (what ^ ": Enum check moves no check.batch.* counter")
            [ ("check.batch.flushes", 0) ]
            deltas;
          Alcotest.(check int)
            (what ^ ": Enum check leaves check.batch.occupancy")
            occ (occupancy ()))
        (oracles ());
      let deltas =
        moved [ "lkmm.batch.early_exit" ] (fun () ->
            ignore (Exec.Oracle.run ~backend:batch Lkmm.oracle test))
      in
      Alcotest.(check bool)
        "native: planes exit early on MP+locks" true
        (List.assoc "lkmm.batch.early_exit" deltas > 0);
      (* cat's two engines share one replay; only a batch exits early *)
      let cat = Lazy.force cat_oracle in
      let early backend =
        List.assoc "cat.batch.early_exit"
          (moved [ "cat.batch.early_exit" ] (fun () ->
               ignore (Exec.Oracle.run ~backend cat test)))
      in
      Alcotest.(check bool) "cat: planes exit early on MP+locks" true
        (early batch > 0);
      Alcotest.(check int) "cat: Enum check moves no cat.batch.early_exit" 0
        (early enum))

(* The enumeration statics are bulk-built and shared between event
   structures of one static shape.  This recomputes each of them from
   the candidate's own events and po with plain pair lists, over every
   candidate of the corpus, of the battery (whose pointer-chasing tests
   have structures differing only in a location) and of a size-5/6
   diygen sample: a wrong bulk build or a wrong share shows as a
   disagreement on a candidate.  The shared-structure counter must
   move, so sharing was exercised. *)
let spec_statics (x : Exec.t) =
  let events = Array.to_list x.events in
  let ids = List.map (fun (e : Exec.Event.t) -> e.id) events in
  let pairs p =
    List.concat_map
      (fun (a : Exec.Event.t) ->
        List.filter_map
          (fun (b : Exec.Event.t) -> if p a b then Some (a.id, b.id) else None)
          events)
      events
  in
  let mem (e : Exec.Event.t) = e.dir <> Exec.Event.F in
  let internal (a : Exec.Event.t) (b : Exec.Event.t) =
    a.id <> b.id && a.tid >= 0 && a.tid = b.tid
  in
  let loc =
    pairs (fun a b -> a.id <> b.id && mem a && mem b && a.loc = b.loc)
  in
  (* outermost rcu_read_lock to its matching unlock, thread by thread *)
  let crit =
    List.concat_map
      (fun tid ->
        let rec go depth outer acc = function
          | [] -> acc
          | (e : Exec.Event.t) :: rest -> (
              match (e.annot, depth, outer) with
              | Rcu_lock, 0, _ -> go 1 (Some e.id) acc rest
              | Rcu_lock, d, _ -> go (d + 1) outer acc rest
              | Rcu_unlock, 1, Some l -> go 0 None ((l, e.id) :: acc) rest
              | Rcu_unlock, d, _ when d > 1 -> go (d - 1) outer acc rest
              | Rcu_unlock, _, _ -> go 0 None acc rest
              | _ -> go depth outer acc rest)
        in
        go 0 None []
          (List.filter (fun (e : Exec.Event.t) -> e.tid = tid) events))
      (List.sort_uniq compare
         (List.filter_map
            (fun (e : Exec.Event.t) -> if e.tid >= 0 then Some e.tid else None)
            events))
  in
  let set p =
    List.filter_map
      (fun (e : Exec.Event.t) -> if p e then Some e.id else None)
      events
  in
  ( [
      ("loc", loc);
      ("int", pairs internal);
      ("ext", pairs (fun a b -> a.id <> b.id && not (internal a b)));
      ("id", List.map (fun i -> (i, i)) ids);
      ("po-loc", List.filter (fun p -> List.mem p loc) (D.to_list x.po));
      ("crit", crit);
    ],
    [
      ("universe", ids);
      ("R", set (fun e -> e.dir = Exec.Event.R));
      ("W", set (fun e -> e.dir = Exec.Event.W));
      ("F", set (fun e -> e.dir = Exec.Event.F));
      ("M", set mem);
      ("IW", set (fun e -> e.annot = Exec.Event.Init));
    ] )

let test_statics_spec () =
  let seeded =
    List.concat_map
      (fun size ->
        Diygen.generate_range ~vocabulary:Diygen.Edge.core_vocabulary ~size 0
          2000
        |> List.map (fun (seed, (t : Litmus.Ast.t)) ->
               (Printf.sprintf "seed %d size %d" seed size, t)))
      [ 5; 6 ]
  in
  let candidates = ref 0 in
  let check (what, test) =
    Seq.iter
      (fun (x : Exec.t) ->
        incr candidates;
        let rels, sets = spec_statics x in
        List.iter2
          (fun (name, spec) got ->
            if List.sort compare spec <> D.to_list got then
              Alcotest.failf "%s: %s disagrees with its spec" what name)
          rels
          [ x.loc_r; x.int_r; x.ext_r; x.id_r; x.po_loc; x.crit ];
        List.iter2
          (fun (name, spec) got ->
            if spec <> Iset.to_list got then
              Alcotest.failf "%s: %s disagrees with its spec" what name)
          sets
          [ x.universe; x.reads; x.writes; x.fences; x.mem; x.init_ws ])
      (Exec.of_test_seq test)
  in
  let shared = Obs.Counter.make "exec.structures.shared" in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let battery =
        List.map
          (fun e ->
            let t = Harness.Battery.test_of e in
            (t.Litmus.Ast.name, t))
          Harness.Battery.all
      in
      List.iter check (sample_tests 1 @ battery @ seeded);
      Alcotest.(check bool) "structures were shared" true
        (Obs.Counter.value shared > 0));
  Alcotest.(check bool) "sample is large" true (!candidates > 3000)

(* Run the model anyway on every candidate the prefilter rejects: none
   may be consistent, under the native axioms or the cat interpreter —
   the executable form of the soundness argument (an sc-per-location
   cycle violates a constraint of every shipped model). *)
let test_prefilter_soundness () =
  let lk_cat = Lazy.force Cat.lk in
  let rejected = ref 0 in
  List.iter
    (fun (file, test) ->
      Seq.iter
        (fun x ->
          if not (Exec.coherent x) then begin
            incr rejected;
            Alcotest.(check bool)
              (file ^ ": prefilter-rejected candidate fails the LK axioms")
              false (Lkmm.consistent x);
            Alcotest.(check bool)
              (file ^ ": prefilter-rejected candidate fails the cat model")
              false
              (Cat.consistent lk_cat x)
          end)
        (Exec.of_test_seq test))
    (sample_tests 9);
  Alcotest.(check bool) "sample exercises the prefilter" true (!rejected > 20)

let () =
  Alcotest.run "rel_dense"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ops_agree;
            prop_closures_agree;
            prop_cyclicity_agrees;
            prop_init_agrees;
            prop_linear_extensions_agree;
            prop_batch_ops_agree;
            prop_batch_masks_agree;
          ] );
      ( "end-to-end",
        [
          Alcotest.test_case "corpus sample agreement" `Quick
            test_corpus_agreement;
          Alcotest.test_case "batched vs scalar agreement" `Quick
            test_batched_agreement;
          Alcotest.test_case "allowed outcomes batched vs scalar" `Quick
            test_allowed_outcomes_agreement;
          Alcotest.test_case "layer counter contract" `Quick
            test_counter_contract;
          Alcotest.test_case "prefilter soundness" `Quick
            test_prefilter_soundness;
          Alcotest.test_case "statics match their spec" `Quick
            test_statics_spec;
        ] );
    ]
