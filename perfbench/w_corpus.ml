(* Workload [corpus]: the golden corpus plus a seeded pair of padded
   budget-breakers, each test parsed from text and checked serially by
   native LK (default engine), cat LK, LK through the SAT backend and
   C11 where applicable, in passes until the run's time is up.

   The traced run also carries the serve traffic ({!W_serve}).

   Answer key: corpus/MANIFEST (LK and C11 goldens), and for the
   breakers their verdicts by construction — one read racing k
   same-location writes may read 1 (Allow); SB+mbs stays forbidden
   whatever k bystander writes run beside it (Forbid).  The padding puts
   the rf×co product past the candidate cap, so the enumerative engines
   answer Unknown and [decided_frac] stays below 1. *)

open Common
module E = Engines

type item = {
  name : string;
  text : string;
  lk : string;  (** golden LK verdict *)
  c11 : string;  (** golden C11 verdict, ["-"] when not applicable *)
}

let corpus_dir = "corpus"

let manifest () =
  read_file (Filename.concat corpus_dir "MANIFEST")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [ file; lk; c11 ] ->
             {
               name = file;
               text = read_file (Filename.concat corpus_dir file);
               lk;
               c11;
             }
         | _ -> die "malformed MANIFEST line %S" l)

let big_allow ~tag k =
  let b = Buffer.create 256 in
  Printf.bprintf b "C breaker-allow-%s\n{ }\nP0(int *x) { int r0 = READ_ONCE(*x); }\n"
    tag;
  for i = 1 to k do
    Printf.bprintf b "P%d(int *x) { WRITE_ONCE(*x, 1); }\n" i
  done;
  Buffer.add_string b "exists (0:r0=1)\n";
  { name = "breaker-allow-" ^ tag; text = Buffer.contents b; lk = "Allow"; c11 = "Allow" }

let big_forbid ~tag k =
  let b = Buffer.create 256 in
  Printf.bprintf b "C breaker-forbid-%s\n{ }\n" tag;
  Buffer.add_string b
    "P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_mb(); int r0 = READ_ONCE(*y); }\n";
  Buffer.add_string b
    "P1(int *x, int *y) { WRITE_ONCE(*y, 1); smp_mb(); int r1 = READ_ONCE(*x); }\n";
  for i = 2 to k + 1 do
    Printf.bprintf b "P%d(int *z) { WRITE_ONCE(*z, 1); }\n" i
  done;
  Buffer.add_string b "exists ((0:r0=0 /\\ 1:r1=0))\n";
  { name = "breaker-forbid-" ^ tag; text = Buffer.contents b; lk = "Forbid"; c11 = "Forbid" }

(* k from 11 to 14: the rf×co product fails the budget's arithmetic
   pre-check, so the enumerative engines give up before enumerating,
   and the solver's few milliseconds keep both breakers above the
   corpus tests' 99th percentile whatever the seed. *)
let breakers seed =
  let rng = Random.State.make [| 0x6272; seed |] in
  let ka = 11 + Random.State.int rng 4 and kf = 11 + Random.State.int rng 4 in
  [ big_allow ~tag:(string_of_int ka) ka; big_forbid ~tag:(string_of_int kf) kf ]

let columns = [ E.Lk; E.Cat; E.Sat; E.C11 ]

(* Set-up: corpus load, first parse of every test, cat-model compile. *)
let setup seed =
  let items = manifest () @ breakers seed in
  List.iter (fun it -> ignore (Sys.opaque_identity (Litmus.parse it.text))) items;
  (items, E.cat_oracle ())

type counts = { mutable checks : int; mutable decided : int }

let judge tally counts it results =
  List.iter
    (fun (col, (r : Exec.Check.result)) ->
      let want = if col = E.C11 then it.c11 else it.lk in
      counts.checks <- counts.checks + 1;
      let v = r.Exec.Check.verdict in
      if decided v then counts.decided <- counts.decided + 1;
      let ok =
        match v with
        | Exec.Check.Unknown (Exec.Check.Budget_exceeded _) -> true
        | v -> verdict_name v = want
      in
      attempt tally ok "corpus %s %s: got %s, key %s" it.name
        (E.column_name col)
        (Exec.Check.verdict_to_string v)
        want)
    results;
  (* a golden C11 column must exist exactly when C11 applies *)
  if it.c11 <> "-" && not (List.mem_assoc E.C11 results) then
    attempt tally false "corpus %s: C11 not applicable, key %s" it.name it.c11

let check ~traced ~cat it =
  let parse () = Litmus.parse it.text in
  let t = if traced then Layers.span "litmus.parse" parse else parse () in
  E.check_all ~cat ~traced columns t

(* One pass: per-test times (first call to last verdict), in seconds. *)
let pass ~check tally counts ~cat items =
  List.map
    (fun it ->
      let results, dt = time (fun () -> check ~cat it) in
      judge tally counts it results;
      dt)
    items

(* Passes until [seconds] are up: their count, each test's fastest
   time, and the pass walls. *)
let passes_for ~seconds f =
  let t0 = now () in
  let rec go n best walls =
    if n > 0 && now () -. t0 >= seconds then (n, best, List.rev walls)
    else
      let times, wall = time f in
      go (n + 1) (if n = 0 then times else List.map2 Float.min best times) (wall :: walls)
  in
  go 0 [] []

let run (a : args) =
  let setups = List.init 9 (fun _ -> time (fun () -> setup a.seed)) in
  let items, cat = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let tally = tally () and counts = { checks = 0; decided = 0 } in
  let n_items = List.length items in
  if not a.trace then begin
    let passes, best, _ =
      passes_for ~seconds:a.seconds (fun () ->
          pass ~check:(check ~traced:false) tally counts ~cat items)
    in
    let ms = List.map (fun s -> s *. 1000.) best in
    record
      [
        ("workload", "\"corpus\"");
        ("seed", string_of_int a.seed);
        ("tests", string_of_int n_items);
        ("breakers", string_of_int (n_items - List.length (manifest ())));
        ("passes", string_of_int passes);
        ("checks", string_of_int counts.checks);
      ];
    result tally
      (Metrics.end_to_end ~setup_s
         ~tests_per_s:(float_of_int n_items /. sum best)
         ~p50:(quantile ms 0.5)
         ~decided_frac:(ratio (float_of_int counts.decided) (float_of_int counts.checks))
         ~peak_rss_mb:(peak_rss_mb ()))
  end
  else begin
    let passes, best, plain_walls =
      passes_for ~seconds:(a.seconds /. 4.) (fun () ->
          pass ~check:(check ~traced:false) tally counts ~cat items)
    in
    Obs.set_enabled true;
    let (), traced_wall =
      time (fun () ->
          for _ = 1 to passes do
            ignore (pass ~check:(check ~traced:true) tally counts ~cat items)
          done)
    in
    Obs.set_enabled false;
    let wall_us = traced_wall *. 1e6 in
    E.print_table ~passes ~wall_us;
    let serve, serve_record =
      W_serve.measure tally ~seed:a.seed ~seconds:(a.seconds /. 2.)
        ~corpus:(List.map (fun it -> (it.name, it.text, it.lk)) (manifest ()))
    in
    record
      ([
         ("workload", "\"corpus\"");
         ("seed", string_of_int a.seed);
         ("tests", string_of_int n_items);
         ("passes", string_of_int passes);
         ("candidates_per_pass", string_of_int (!E.candidates / passes));
       ]
      @ serve_record);
    result tally
      (Metrics.per_layer ~tally
         (E.layer_metrics ~passes @ serve
         @ [
             ("verdict_p99_ms", 1000. *. quantile best 0.99, "ms");
             ("trace.coverage", E.coverage ~wall_us, "ratio");
             ( "trace.overhead_ratio",
               (wall_us -. !E.probe_us) /. 1e6 /. sum plain_walls,
               "ratio" );
           ]))
  end
