(* Tests for the diy-style generator: edge algebra, cycle enumeration,
   realisation of the classic shapes, and self-validation. *)

module E = Diygen.Edge
module C = Diygen.Cycle

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)
(* ------------------------------------------------------------------ *)

let test_edge_directions () =
  Alcotest.(check bool) "Rfe: W -> R" true
    (E.src_dir E.Rfe = Some E.W && E.tgt_dir E.Rfe = Some E.R);
  Alcotest.(check bool) "Fre: R -> W" true
    (E.src_dir E.Fre = Some E.R && E.tgt_dir E.Fre = Some E.W);
  Alcotest.(check bool) "Dp from a read" true
    (E.src_dir (E.Dp (E.Addr, E.R)) = Some E.R);
  Alcotest.(check bool) "Po_rel into a write" true
    (E.tgt_dir (E.Po_rel E.R) = Some E.W)

let test_edge_classification () =
  Alcotest.(check bool) "communications are external" true
    (List.for_all E.external_ [ E.Rfe; E.Fre; E.Coe ]);
  Alcotest.(check bool) "po edges are internal" true
    (not (E.external_ (E.Pod (E.R, E.W))));
  Alcotest.(check bool) "Pos stays on the location" false
    (E.diff_loc (E.Pos (E.W, E.R)));
  Alcotest.(check bool) "communications stay on the location" true
    (List.for_all (fun e -> not (E.diff_loc e)) [ E.Rfe; E.Fre; E.Coe ])

let test_edge_names_unique () =
  let names = List.map E.to_string E.vocabulary in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Cycles                                                              *)
(* ------------------------------------------------------------------ *)

let mp_cycle = [ E.Pod (E.W, E.W); E.Rfe; E.Pod (E.R, E.R); E.Fre ]
let sb_cycle = [ E.Pod (E.W, E.R); E.Fre; E.Pod (E.W, E.R); E.Fre ]

let test_sane () =
  Alcotest.(check bool) "MP is sane" true (C.sane mp_cycle);
  Alcotest.(check bool) "SB is sane" true (C.sane sb_cycle);
  (* Rfe ends in a read; another Rfe must start from a write *)
  Alcotest.(check bool) "mismatched junction rejected" false
    (C.sane [ E.Rfe; E.Rfe; E.Fre; E.Fre ]);
  Alcotest.(check bool) "Rfe then Coe rejected" false
    (C.sane [ E.Rfe; E.Coe; E.Fre; E.Pod (E.W, E.W) ]);
  Alcotest.(check bool) "one external edge rejected" false
    (C.sane [ E.Rfe; E.Pod (E.R, E.W); E.Pod (E.W, E.W) ]);
  Alcotest.(check bool) "single diff-loc edge rejected" false
    (C.sane [ E.Rfe; E.Pod (E.R, E.R); E.Fre ])

let test_canonical_rotation_invariant () =
  let rots = C.rotations mp_cycle in
  List.iter
    (fun r ->
      Alcotest.(check string) "same canonical form" (C.name (C.canonical mp_cycle))
        (C.name (C.canonical r)))
    rots

let test_enumerate_no_duplicates () =
  let cycles = C.enumerate ~vocabulary:[ E.Rfe; E.Fre; E.Coe; E.Pod (E.W, E.W); E.Pod (E.R, E.R); E.Pod (E.W, E.R) ] 4 in
  let names = List.map C.name cycles in
  Alcotest.(check int) "no duplicate canonical cycles" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "all sane" true (List.for_all C.sane cycles)

(* ------------------------------------------------------------------ *)
(* Realisation                                                         *)
(* ------------------------------------------------------------------ *)

let realize c =
  match Diygen.Realize.test_of_cycle c with
  | Some t -> t
  | None -> Alcotest.fail ("cannot realize " ^ C.name c)

let test_realize_mp () =
  let t = realize mp_cycle in
  Alcotest.(check int) "two threads" 2 (Array.length t.Litmus.Ast.threads);
  (* it really is MP: same verdicts as the named battery test *)
  Alcotest.(check bool) "MP is allowed" true
    ((Lkmm.check t).Exec.Check.verdict = Exec.Check.Allow)

let test_realize_fenced_variants () =
  let check cycle expected =
    let t = realize cycle in
    Alcotest.(check bool)
      (C.name cycle ^ " expected " ^ Exec.Check.verdict_to_string expected)
      true
      ((Lkmm.check t).Exec.Check.verdict = expected)
  in
  (* MP family *)
  check mp_cycle Exec.Check.Allow;
  check [ E.Fenced (E.Wmb, E.W, E.W); E.Rfe; E.Fenced (E.Rmb, E.R, E.R); E.Fre ]
    Exec.Check.Forbid;
  check [ E.Po_rel E.W; E.Rfe; E.Acq_po E.R; E.Fre ] Exec.Check.Forbid;
  (* SB family *)
  check sb_cycle Exec.Check.Allow;
  check [ E.Fenced (E.Mb, E.W, E.R); E.Fre; E.Fenced (E.Mb, E.W, E.R); E.Fre ]
    Exec.Check.Forbid;
  (* synchronize_rcu acts as a strong fence in generated tests too *)
  check [ E.Fenced (E.Sync, E.W, E.R); E.Fre; E.Fenced (E.Mb, E.W, E.R); E.Fre ]
    Exec.Check.Forbid;
  (* LB with data dependencies *)
  check [ E.Dp (E.Data, E.W); E.Rfe; E.Dp (E.Data, E.W); E.Rfe ]
    Exec.Check.Forbid;
  (* Alpha: plain address dependency in the read-read position *)
  check [ E.Dp (E.Addr, E.R); E.Fre; E.Fenced (E.Wmb, E.W, E.W); E.Rfe ]
    Exec.Check.Allow

let test_realized_condition_is_reachable () =
  (* self-validation contract: the condition identifies at least one
     candidate execution *)
  let rng = Random.State.make [| 42 |] in
  let tests = Diygen.sample ~vocabulary:E.vocabulary ~rng ~count:30 4 in
  Alcotest.(check bool) "sample nonempty" true (List.length tests > 10);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.Litmus.Ast.name ^ " condition reachable")
        true
        (List.exists Exec.satisfies_cond (Exec.of_test t)))
    tests

let test_realized_tests_parse_back () =
  let rng = Random.State.make [| 43 |] in
  let tests = Diygen.sample ~vocabulary:E.core_vocabulary ~rng ~count:20 5 in
  List.iter
    (fun t ->
      let t' = Litmus.parse (Litmus.to_string t) in
      Alcotest.(check bool)
        (t.Litmus.Ast.name ^ " prints and reparses")
        true
        (t.Litmus.Ast.threads = t'.Litmus.Ast.threads))
    tests

let test_dependency_edges_materialise () =
  (* an addr-dep cycle yields a test whose executions carry addr edges *)
  let t = realize [ E.Dp (E.Addr, E.W); E.Rfe; E.Dp (E.Addr, E.W); E.Rfe ] in
  let x = List.hd (Exec.of_test t) in
  Alcotest.(check bool) "addr edge present" false (Rel.is_empty x.Exec.addr)

let test_ctrl_edges_materialise () =
  let t = realize [ E.Dp (E.Ctrl, E.W); E.Rfe; E.Dp (E.Ctrl, E.W); E.Rfe ] in
  Alcotest.(check bool) "ctrl edge present" true
    (List.exists
       (fun x -> not (Rel.is_empty x.Exec.ctrl))
       (Exec.of_test t))

let test_generate_sizes () =
  let n3 = Diygen.generate ~vocabulary:E.core_vocabulary 3 in
  let n4 = Diygen.generate ~vocabulary:[ E.Rfe; E.Fre; E.Coe; E.Pod (E.W, E.W); E.Pod (E.R, E.R); E.Pod (E.W, E.R); E.Pod (E.R, E.W) ] 4 in
  Alcotest.(check bool) "size 3 small but nonempty" true (List.length n3 >= 1);
  Alcotest.(check bool) "size 4 has the classics" true (List.length n4 >= 10)

(* ------------------------------------------------------------------ *)
(* Deterministic seed-range generation (campaign shards)               *)
(* ------------------------------------------------------------------ *)

(* Campaign shards regenerate their tests from (config, seed) alone:
   the same range must yield the byte-identical tests, every time. *)
let test_seed_range_deterministic () =
  let gen () =
    List.map
      (fun (seed, (t : Litmus.Ast.t)) -> (seed, t.name, Litmus.to_string t))
      (Diygen.generate_range ~vocabulary:E.core_vocabulary ~size:4 0 400)
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "some seeds realise" true (List.length a > 3);
  Alcotest.(check bool) "byte-identical across calls" true (a = b);
  (* a sub-range is a sub-list: seeds are independent, not a stream *)
  let sub =
    List.map
      (fun (seed, (t : Litmus.Ast.t)) -> (seed, t.name, Litmus.to_string t))
      (Diygen.generate_range ~vocabulary:E.core_vocabulary ~size:4 100 300)
  in
  Alcotest.(check bool) "range-independent" true
    (List.for_all (fun x -> List.mem x a) sub
     && List.for_all
          (fun ((s, _, _) as x) ->
            if s >= 100 && s < 300 then List.mem x sub else true)
          a)

let test_seed_denotes_canonical_test () =
  (* the walk is canonicalised before realisation, so a seed's test is
     stable under the name <-> cycle bijection the corpus relies on *)
  List.iter
    (fun seed ->
      match Diygen.test_of_seed ~vocabulary:E.core_vocabulary ~size:4 seed with
      | None -> ()
      | Some t -> (
          match
            Diygen.test_of_seed ~vocabulary:E.core_vocabulary ~size:4 seed
          with
          | Some t' ->
              Alcotest.(check string) "stable name" t.Litmus.Ast.name
                t'.Litmus.Ast.name;
              Alcotest.(check string) "stable source" (Litmus.to_string t)
                (Litmus.to_string t')
          | None -> Alcotest.fail "seed flickered"))
    [ 0; 1; 7; 79; 123; 1024 ]

(* The seed -> test binding is pinned by digest: campaigns regenerate
   their tests from seeds, so a rewrite of the walk, canonicalisation or
   realisation must not re-map a single seed.  Each digest is the MD5 of
   "<seed>:<Litmus.to_string test>\n" (or "<seed>:-\n" for a seed that
   realises nothing) over seeds 0..1999. *)
let seed_digest ?vocabulary ~size () =
  let b = Buffer.create (1 lsl 20) in
  for seed = 0 to 1999 do
    Buffer.add_string b (string_of_int seed);
    Buffer.add_char b ':';
    (match Diygen.test_of_seed ?vocabulary ~size seed with
    | None -> Buffer.add_char b '-'
    | Some t -> Buffer.add_string b (Litmus.to_string t));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_seed_golden () =
  let core = E.core_vocabulary in
  List.iter
    (fun (what, expected, digest) ->
      Alcotest.(check string) what expected (digest ()))
    [
      ( "core size 4",
        "79dfbbbcdcdce47b440b5c54ce84764f",
        seed_digest ~vocabulary:core ~size:4 );
      ( "core size 5",
        "af1d83b10bf511d756fdbc20973d8e50",
        seed_digest ~vocabulary:core ~size:5 );
      ( "core size 6",
        "20fe86e99e8090cbf655087c765e3833",
        seed_digest ~vocabulary:core ~size:6 );
      ( "full size 5",
        "0ad46d69b4d9857a675b56b9ab5d11f8",
        seed_digest ~vocabulary:E.vocabulary ~size:5 );
    ]

let test_generate_golden () =
  let digest ?vocabulary n =
    let tests = Diygen.generate ?vocabulary n in
    let src = String.concat "\n" (List.map Litmus.to_string tests) in
    Digest.to_hex (Digest.string src)
  in
  Alcotest.(check string) "generate 3" "1a28533baac125b44cffb211d8f8c40b"
    (digest 3);
  Alcotest.(check string) "generate 4, core" "8e113a28ef9c12ee3d9f3dabdb346d1b"
    (digest ~vocabulary:E.core_vocabulary 4)

let () =
  Alcotest.run "diygen"
    [
      ( "edges",
        [
          Alcotest.test_case "directions" `Quick test_edge_directions;
          Alcotest.test_case "classification" `Quick test_edge_classification;
          Alcotest.test_case "unique names" `Quick test_edge_names_unique;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "sanity" `Quick test_sane;
          Alcotest.test_case "canonical rotations" `Quick
            test_canonical_rotation_invariant;
          Alcotest.test_case "no duplicates" `Quick
            test_enumerate_no_duplicates;
        ] );
      ( "realisation",
        [
          Alcotest.test_case "MP" `Quick test_realize_mp;
          Alcotest.test_case "fenced variants" `Quick
            test_realize_fenced_variants;
          Alcotest.test_case "conditions reachable" `Slow
            test_realized_condition_is_reachable;
          Alcotest.test_case "parse back" `Quick test_realized_tests_parse_back;
          Alcotest.test_case "addr edges" `Quick
            test_dependency_edges_materialise;
          Alcotest.test_case "ctrl edges" `Quick test_ctrl_edges_materialise;
          Alcotest.test_case "sizes" `Quick test_generate_sizes;
        ] );
      ( "seed ranges",
        [
          Alcotest.test_case "deterministic" `Quick
            test_seed_range_deterministic;
          Alcotest.test_case "canonical per seed" `Quick
            test_seed_denotes_canonical_test;
          Alcotest.test_case "seed golden" `Quick test_seed_golden;
          Alcotest.test_case "generate golden" `Quick test_generate_golden;
        ] );
    ]
