(* Campaign manifest: the crash-safe shard ledger of {!Campaign}.

   A campaign over 10^5+ generated tests is partitioned into shards,
   each a deterministic (generator config, seed range) pair — tests are
   regenerated inside workers ({!Diygen.test_of_seed}), never stored.
   The manifest is the only authority on shard state; it is an
   append-only JSONL journal written through {!Journal.write_line} and
   replayed through the same torn-tail-tolerant reader as every other
   journal in the tree, so a [kill -9] at any byte offset loses at most
   the line being written and a resumed orchestrator reconstructs the
   exact surviving state.

   Line shapes:

     {"manifest_version": 1, "spec": {"size": 4, "seed_lo": 0, ...}}
     {"ev": "lease", "lo": 0, "hi": 128, "attempt": 1, "pid": 7, ...}
     {"ev": "requeue", "lo": 0, "hi": 128}
     {"ev": "split", "lo": 0, "hi": 128, "mid": 64}
     {"ev": "done", "lo": 0, "hi": 128, "summary": {...}}
     {"ev": "quarantine", "lo": 0, "hi": 128, "attempts": 2, "error": ".."}

   The header pins the campaign's identity; resuming with a different
   spec is refused (shard ranges would no longer mean the same tests).
   Replay starts from the spec's initial shard partition and folds the
   events in file order; events naming an unknown shard range are
   ignored with the same tolerance as garbage lines.  [done] events
   embed the shard's compacted verdict summary, which is what lets the
   orchestrator delete per-shard result journals (the disk-budget
   guard) without losing the campaign's mining inputs. *)

module Json = Journal.Json

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type spec = {
  size : int; (* cycle length handed to the generator *)
  seed_lo : int; (* inclusive *)
  seed_hi : int; (* exclusive *)
  shard_size : int; (* seeds per initial shard *)
}

(* One mined disagreement: the seed regenerates the test on demand, the
   verdict vector is what the models said, [kinds] the disagreement
   classes the row exhibits (sorted; see {!Campaign}). *)
type row = {
  seed : int;
  test : string;
  verdicts : (string * string) list; (* model -> verdict string, sorted *)
  kinds : string list;
}

(* The compacted residue of a finished shard: everything mining needs,
   nothing per-test except the disagreement rows (capped, with the
   dropped count surfaced — never silently). *)
type summary = {
  n_seeds : int; (* seeds covered (= hi - lo) *)
  n_tests : int; (* seeds that realised a test *)
  n_unknown : int; (* per-model Unknown verdicts recorded *)
  counts : (string * int) list; (* "lk:Allow" -> n, sorted by key *)
  rows : row list; (* disagreement rows, seed order *)
  rows_dropped : int;
  time_s : float; (* worker wall-clock spent on the shard *)
}

type state =
  | Pending
  | Leased of { attempt : int; pid : int; since : float }
  | Done of summary
  | Quarantined of { attempts : int; error : string }

type shard = { lo : int; hi : int; attempts : int; state : state }

type event =
  | Lease of { lo : int; hi : int; attempt : int; pid : int; since : float }
  | Requeue of { lo : int; hi : int; failed : bool }
  | Split of { lo : int; hi : int; mid : int }
  | Completed of { lo : int; hi : int; summary : summary }
  | Quarantine of { lo : int; hi : int; attempts : int; error : string }

type t = {
  path : string;
  spec : spec;
  shards : (int * int, shard) Hashtbl.t;
  mutable writer : Journal.writer option;
}

let manifest_version = 1

let shard_id lo hi = Printf.sprintf "s%d-%d" lo hi

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let esc = Obs.json_escape

let spec_to_json s =
  Printf.sprintf
    "{\"size\": %d, \"seed_lo\": %d, \"seed_hi\": %d, \"shard_size\": %d}"
    s.size s.seed_lo s.seed_hi s.shard_size

let row_to_json r =
  Printf.sprintf
    "{\"seed\": %d, \"test\": \"%s\", \"kinds\": [%s], \"v\": {%s}}" r.seed
    (esc r.test)
    (String.concat ", "
       (List.map (fun k -> Printf.sprintf "\"%s\"" (esc k)) r.kinds))
    (String.concat ", "
       (List.map
          (fun (m, v) -> Printf.sprintf "\"%s\": \"%s\"" (esc m) (esc v))
          r.verdicts))

let summary_to_json s =
  Printf.sprintf
    "{\"n_seeds\": %d, \"n_tests\": %d, \"n_unknown\": %d, \"time_s\": %.3f, \
     \"rows_dropped\": %d, \"counts\": {%s}, \"rows\": [%s]}"
    s.n_seeds s.n_tests s.n_unknown s.time_s s.rows_dropped
    (String.concat ", "
       (List.map
          (fun (k, n) -> Printf.sprintf "\"%s\": %d" (esc k) n)
          s.counts))
    (String.concat ", " (List.map row_to_json s.rows))

let line_of_event = function
  | Lease { lo; hi; attempt; pid; since } ->
      Printf.sprintf
        "{\"ev\": \"lease\", \"lo\": %d, \"hi\": %d, \"attempt\": %d, \
         \"pid\": %d, \"since\": %.3f}"
        lo hi attempt pid since
  | Requeue { lo; hi; failed } ->
      Printf.sprintf
        "{\"ev\": \"requeue\", \"lo\": %d, \"hi\": %d, \"failed\": %b}" lo hi
        failed
  | Split { lo; hi; mid } ->
      Printf.sprintf
        "{\"ev\": \"split\", \"lo\": %d, \"hi\": %d, \"mid\": %d}" lo hi mid
  | Completed { lo; hi; summary } ->
      Printf.sprintf
        "{\"ev\": \"done\", \"lo\": %d, \"hi\": %d, \"summary\": %s}" lo hi
        (summary_to_json summary)
  | Quarantine { lo; hi; attempts; error } ->
      Printf.sprintf
        "{\"ev\": \"quarantine\", \"lo\": %d, \"hi\": %d, \"attempts\": %d, \
         \"error\": \"%s\"}"
        lo hi attempts (esc error)

(* ------------------------------------------------------------------ *)
(* JSON parsing                                                        *)
(* ------------------------------------------------------------------ *)

let int_mem key j = Option.map int_of_float (Option.bind (Json.mem key j) Json.num)
let num_mem key j = Option.bind (Json.mem key j) Json.num
let str_mem key j = Option.bind (Json.mem key j) Json.str

let spec_of_json j =
  match
    (int_mem "size" j, int_mem "seed_lo" j, int_mem "seed_hi" j,
     int_mem "shard_size" j)
  with
  | Some size, Some seed_lo, Some seed_hi, Some shard_size ->
      Some { size; seed_lo; seed_hi; shard_size }
  | _ -> None

let row_of_json j =
  let ( let* ) = Option.bind in
  let* seed = int_mem "seed" j in
  let* test = str_mem "test" j in
  let kinds =
    match Json.mem "kinds" j with
    | Some (Json.Arr ks) ->
        List.filter_map (function Json.Str s -> Some s | _ -> None) ks
    | _ -> []
  in
  let verdicts =
    match Json.mem "v" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.str v))
          kvs
    | _ -> []
  in
  Some { seed; test; verdicts; kinds }

let summary_of_json j =
  let ( let* ) = Option.bind in
  let* n_seeds = int_mem "n_seeds" j in
  let* n_tests = int_mem "n_tests" j in
  let* n_unknown = int_mem "n_unknown" j in
  let time_s = Option.value ~default:0. (num_mem "time_s" j) in
  let rows_dropped = Option.value ~default:0 (int_mem "rows_dropped" j) in
  let counts =
    match Json.mem "counts" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            Option.map (fun n -> (k, int_of_float n)) (Json.num v))
          kvs
    | _ -> []
  in
  let rows =
    match Json.mem "rows" j with
    | Some (Json.Arr rs) -> List.filter_map row_of_json rs
    | _ -> []
  in
  Some { n_seeds; n_tests; n_unknown; counts; rows; rows_dropped; time_s }

let event_of_json j =
  let ( let* ) = Option.bind in
  let* ev = str_mem "ev" j in
  let* lo = int_mem "lo" j in
  let* hi = int_mem "hi" j in
  match ev with
  | "lease" ->
      let* attempt = int_mem "attempt" j in
      let pid = Option.value ~default:0 (int_mem "pid" j) in
      let since = Option.value ~default:0. (num_mem "since" j) in
      Some (Lease { lo; hi; attempt; pid; since })
  | "requeue" ->
      let failed =
        Option.value ~default:false
          (Option.bind (Json.mem "failed" j) Json.bool_)
      in
      Some (Requeue { lo; hi; failed })
  | "split" ->
      let* mid = int_mem "mid" j in
      if lo < mid && mid < hi then Some (Split { lo; hi; mid }) else None
  | "done" ->
      let* summary = Option.bind (Json.mem "summary" j) summary_of_json in
      Some (Completed { lo; hi; summary })
  | "quarantine" ->
      let* attempts = int_mem "attempts" j in
      let error = Option.value ~default:"" (str_mem "error" j) in
      Some (Quarantine { lo; hi; attempts; error })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* State machine                                                       *)
(* ------------------------------------------------------------------ *)

let initial_shards spec =
  let tbl = Hashtbl.create 64 in
  let rec go lo =
    if lo < spec.seed_hi then begin
      let hi = min (lo + spec.shard_size) spec.seed_hi in
      Hashtbl.replace tbl (lo, hi) { lo; hi; attempts = 0; state = Pending };
      go hi
    end
  in
  if spec.shard_size > 0 then go spec.seed_lo;
  tbl

(* Events naming an unknown shard range are ignored — the same
   tolerance the journal readers give torn lines, and what makes a
   truncated manifest replay to a consistent prefix of the run. *)
let apply shards = function
  | Lease { lo; hi; attempt; pid; since } ->
      Option.iter
        (fun sh ->
          Hashtbl.replace shards (lo, hi)
            { sh with state = Leased { attempt; pid; since } })
        (Hashtbl.find_opt shards (lo, hi))
  | Requeue { lo; hi; failed } ->
      (* [failed] escalates the degradation ladder; a requeue after
         orchestrator death does not — the worker never got to fail, and
         resumed campaigns must classify exactly as uninterrupted ones *)
      Option.iter
        (fun sh ->
          Hashtbl.replace shards (lo, hi)
            {
              sh with
              attempts = (sh.attempts + if failed then 1 else 0);
              state = Pending;
            })
        (Hashtbl.find_opt shards (lo, hi))
  | Split { lo; hi; mid } ->
      if Hashtbl.mem shards (lo, hi) then begin
        Hashtbl.remove shards (lo, hi);
        Hashtbl.replace shards (lo, mid)
          { lo; hi = mid; attempts = 0; state = Pending };
        Hashtbl.replace shards (mid, hi)
          { lo = mid; hi; attempts = 0; state = Pending }
      end
  | Completed { lo; hi; summary } ->
      Option.iter
        (fun sh ->
          Hashtbl.replace shards (lo, hi) { sh with state = Done summary })
        (Hashtbl.find_opt shards (lo, hi))
  | Quarantine { lo; hi; attempts; error } ->
      Option.iter
        (fun sh ->
          Hashtbl.replace shards (lo, hi)
            { sh with attempts; state = Quarantined { attempts; error } })
        (Hashtbl.find_opt shards (lo, hi))

(* ------------------------------------------------------------------ *)
(* Creation, loading, recording                                        *)
(* ------------------------------------------------------------------ *)

let header_line spec =
  Printf.sprintf "{\"manifest_version\": %d, \"spec\": %s}" manifest_version
    (spec_to_json spec)

let create path spec =
  let w = Journal.open_writer path in
  Journal.write_line w (header_line spec);
  { path; spec; shards = initial_shards spec; writer = Some w }

(* Replay: the first line must be a valid header (a manifest torn
   before its header ever hit the disk is indistinguishable from no
   manifest — callers fall back to [create]); every later line that
   parses as an event folds into the state, everything else is
   dropped. *)
let load path =
  if not (Sys.file_exists path) then Error "no manifest"
  else begin
    let spec = ref None in
    let shards = ref None in
    Journal.iter_lines path (fun line ->
        match Json.of_string line with
        | exception Json.Malformed _ -> ()
        | j -> (
            match !spec with
            | None -> (
                match Option.bind (Json.mem "spec" j) spec_of_json with
                | Some s ->
                    spec := Some s;
                    shards := Some (initial_shards s)
                | None -> ())
            | Some _ ->
                Option.iter
                  (fun ev ->
                    match !shards with
                    | Some tbl -> apply tbl ev
                    | None -> ())
                  (event_of_json j)));
    match (!spec, !shards) with
    | Some spec, Some shards -> Ok { path; spec; shards; writer = None }
    | _ -> Error "manifest has no valid header"
  end

(* Resume when the on-disk spec matches, create otherwise-absent
   manifests, refuse a mismatch: shard ranges are only meaningful
   relative to the generator config that named them. *)
let open_ path spec =
  match load path with
  | Ok m ->
      if m.spec = spec then begin
        m.writer <- Some (Journal.open_writer path);
        Ok m
      end
      else
        Error
          (Printf.sprintf
             "manifest %s was created with a different campaign spec %s (got \
              %s)"
             path (spec_to_json m.spec) (spec_to_json spec))
  | Error _ when Sys.file_exists path ->
      (* a torn header: the file carries no recoverable state — start
         over in place *)
      (try Sys.remove path with Sys_error _ -> ());
      Ok (create path spec)
  | Error _ -> Ok (create path spec)

let record m ev =
  apply m.shards ev;
  match m.writer with
  | Some w -> Journal.write_line w (line_of_event ev)
  | None -> invalid_arg "Manifest.record: read-only manifest"

let spec m = m.spec

let shards m =
  Hashtbl.fold (fun _ sh acc -> sh :: acc) m.shards []
  |> List.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi))

let close m =
  (match m.writer with Some w -> Journal.close w | None -> ());
  m.writer <- None
