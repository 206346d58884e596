(* Workload [sweep]: the size-6 diygen sweep — 40,000 consecutive seeds
   from an offset taken from the workload seed, tests generated through
   [Diygen.test_of_seed] (core vocabulary, as diy_gen --seed-range and
   campaigns use), deduplicated by name, and checked serially
   in-process by native LK and C11: [diy_gen --seed-range A..B
   --verdicts] without the printing.  Whole sweeps repeat until the
   run's time is up.

   Answer key: an untimed pass re-checks every distinct test through the
   cat-interpreted LK model, which must agree with every native LK
   verdict; every repeated sweep must reproduce the first one's
   verdicts. *)

open Common
module E = Engines

let size = 6
let seeds = 40_000

let vocabulary = Diygen.Edge.core_vocabulary
let range seed = (seed * seeds, (seed + 1) * seeds)

let columns = [ E.Lk; E.C11 ]

type pass_stats = {
  times : float list;  (** per distinct test: generation to last verdict *)
  verdicts : (Litmus.Ast.t * (E.column * Exec.Check.verdict) list) list;
  realised : int;
  duplicates : int;
}

(* One sweep.  [gen] and [check] are the (possibly traced) layer calls.
   A distinct test's time runs from the end of the previous one to its
   own last verdict: it covers the seeds walked to find it (those that
   realise nothing or a duplicate included), so the times add up to the
   sweep. *)
let sweep ~gen ~check (lo, hi) =
  let seen = Hashtbl.create 4096 in
  let times = ref [] and verdicts = ref [] and realised = ref 0
  and duplicates = ref 0 and t0 = ref (now ()) in
  for s = lo to hi - 1 do
    match gen s with
    | None -> ()
    | Some (t : Litmus.Ast.t) ->
        incr realised;
        if Hashtbl.mem seen t.name then incr duplicates
        else begin
          Hashtbl.add seen t.name ();
          let vs = check t in
          let t1 = now () in
          times := (t1 -. !t0) :: !times;
          t0 := t1;
          verdicts := (t, vs) :: !verdicts
        end
  done;
  {
    times = !times;
    verdicts = List.rev !verdicts;
    realised = !realised;
    duplicates = !duplicates;
  }

let gen_plain s = Diygen.test_of_seed ~vocabulary ~size s

let gen_traced s =
  Layers.span "diygen.generate" (fun () -> Diygen.test_of_seed ~vocabulary ~size s)

let check ~traced ~cat t =
  List.map
    (fun (col, (r : Exec.Check.result)) -> (col, r.Exec.Check.verdict))
    (E.check_all ~cat ~traced columns t)

(* Engine errors fail the run; budget Unknowns only lower decided_frac. *)
let errored = function
  | Exec.Check.Unknown (Exec.Check.Budget_exceeded _) -> false
  | Exec.Check.Unknown _ -> true
  | Exec.Check.Allow | Exec.Check.Forbid -> false

let key p = List.map (fun ((t : Litmus.Ast.t), vs) -> (t.name, vs)) p.verdicts

(* The answer key on the first sweep: no engine errors, and cat LK
   agreeing with native LK on every distinct test both decide. *)
let judge tally ~cat first =
  List.iter
    (fun ((t : Litmus.Ast.t), vs) ->
      List.iter
        (fun (col, v) ->
          attempt tally (not (errored v)) "sweep %s %s: %s" t.name
            (E.column_name col) (Exec.Check.verdict_to_string v))
        vs;
      let cat_v = (E.run ~cat E.Cat t).Exec.Check.verdict in
      match List.assoc_opt E.Lk vs with
      | Some lk when decided lk && decided cat_v ->
          attempt tally (lk = cat_v) "sweep %s: native LK %s, cat LK %s" t.name
            (verdict_name lk) (verdict_name cat_v)
      | _ -> ())
    first.verdicts

(* Whole sweeps until [seconds] are up: the first sweep, each test's
   fastest time, and the sweep walls.  Every later sweep must reproduce
   the first one's verdicts. *)
let repeat tally ~seconds f =
  let t0 = now () in
  let first = f () in
  let rec go best walls =
    if now () -. t0 >= seconds then (first, best, List.rev walls)
    else
      let p, wall = time f in
      attempt tally (key p = key first) "sweep: a repeated sweep changed its verdicts";
      go (List.map2 Float.min best p.times) (wall :: walls)
  in
  go first.times [ now () -. t0 ]

let decided_frac first =
  let n = ref 0 and d = ref 0 in
  List.iter
    (fun (_, vs) ->
      List.iter
        (fun (_, v) ->
          incr n;
          if decided v then incr d)
        vs)
    first.verdicts;
  ratio (float_of_int !d) (float_of_int !n)

let run (a : args) =
  let r = range a.seed in
  (* set-up: the answer key's cat-model compile *)
  let setups = List.init 9 (fun _ -> time E.cat_oracle) in
  let cat = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let tally = tally () in
  let base_record first ~passes =
    [
      ("workload", "\"sweep\"");
      ("seed", string_of_int a.seed);
      ("size", string_of_int size);
      ("seeds_walked", string_of_int seeds);
      ("seed_range", Printf.sprintf "\"%d..%d\"" (fst r) (snd r));
      ("tests", string_of_int (List.length first.times));
      ("passes", string_of_int passes);
    ]
  in
  if not a.trace then begin
    let first, best, walls =
      repeat tally ~seconds:a.seconds (fun () ->
          sweep ~gen:gen_plain ~check:(check ~traced:false ~cat) r)
    in
    judge tally ~cat first;
    record (base_record first ~passes:(List.length walls));
    let ms = List.map (fun s -> s *. 1000.) best in
    result tally
      (Metrics.end_to_end ~setup_s
         ~tests_per_s:(float_of_int (List.length best) /. sum best)
         ~p50:(quantile ms 0.5) ~decided_frac:(decided_frac first)
         ~peak_rss_mb:(peak_rss_mb ()))
  end
  else begin
    let first, best, plain_walls =
      repeat tally ~seconds:(a.seconds /. 2.) (fun () ->
          sweep ~gen:gen_plain ~check:(check ~traced:false ~cat) r)
    in
    let n = List.length plain_walls in
    Obs.set_enabled true;
    let traced, traced_wall =
      time (fun () ->
          List.init n (fun _ -> sweep ~gen:gen_traced ~check:(check ~traced:true ~cat) r))
    in
    Obs.set_enabled false;
    List.iter
      (fun p ->
        attempt tally (key p = key first) "sweep: a traced sweep changed its verdicts")
      traced;
    judge tally ~cat first;
    let wall_us = traced_wall *. 1e6 in
    E.print_table ~passes:n ~wall_us;
    record
      (base_record first ~passes:n
      @ [ ("candidates_per_pass", string_of_int (!E.candidates / n)) ]);
    let traced = List.hd traced in
    result tally
      (Metrics.per_layer ~tally
         (E.layer_metrics ~passes:n
         @ [
             ("verdict_p99_ms", 1000. *. quantile best 0.99, "ms");
             ( "diygen.realised_ratio",
               float_of_int traced.realised /. float_of_int seeds,
               "ratio" );
             ( "diygen.dup_ratio",
               ratio (float_of_int traced.duplicates) (float_of_int traced.realised),
               "ratio" );
             ("trace.coverage", E.coverage ~wall_us, "ratio");
             ( "trace.overhead_ratio",
               (wall_us -. !E.probe_us) /. 1e6 /. sum plain_walls,
               "ratio" );
           ]))
  end
