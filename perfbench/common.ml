(* Shared plumbing of the benchmark: arguments, clock and statistics,
   the answer-key tally, the result line, and the traced run's layer
   accounting.  Nothing here reaches into the program under test beyond
   its public functions and the counters lib/obs already keeps. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

(* Workload seeds: [default_seed] is the one used while the benchmark is
   tuned; a claimed gain must also hold on [held_out_seed]. *)
let default_seed = 1
let held_out_seed = 20181

let usage =
  "bench --workload corpus|sweep|campaign [--seed N] [--seconds S] \
   [--trace 0|1]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let parse_args () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with
        | Some n when n >= 0 -> seed := n
        | _ -> die "bad --seed %S" s);
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> seconds := x
        | _ -> die "bad --seconds %S" s);
        go rest
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "bad --trace %S" t);
        go rest
    | a :: _ -> die "unknown argument %S (usage: %s)" a usage
  in
  go (List.tl (Array.to_list Sys.argv));
  if !workload = "" then die "missing --workload (usage: %s)" usage;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace }

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    let f = pos -. float_of_int i in
    a.(i) +. (f *. (a.(j) -. a.(i)))

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile_sorted a q

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.

let ratio num den = if den = 0. then 0. else num /. den

(* Co-tenant contention on shared hardware only ever slows a repetition
   down, in bursts of seconds; a repeated measurement is therefore
   summarised by its fastest repetition, and a per-test time by the
   test's fastest pass. *)
let best xs = List.fold_left Float.min infinity xs

let best_per_item = function
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 Float.min) first rest

(* Peak resident set (VmHWM) of this process, MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Scratch space inside the checkout (campaign directories, the serve
   socket); removed when the run ends. *)
let work_dir = Filename.concat "perfbench" "_work"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_work_dir () =
  rm_rf work_dir;
  Unix.mkdir work_dir 0o755

(* ------------------------------------------------------------------ *)
(* Answer-key tally                                                    *)
(* ------------------------------------------------------------------ *)

(* Every operation the run attempts, and those that errored, were
   refused, or returned a verdict disagreeing with the answer key. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let fails_shown = ref 0

let attempt t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if !fails_shown < 20 then begin
          incr fails_shown;
          prerr_endline ("perfbench: FAILED: " ^ msg)
        end
      end)
    fmt

let verdict_name = function
  | Exec.Check.Allow -> "Allow"
  | Exec.Check.Forbid -> "Forbid"
  | Exec.Check.Unknown _ -> "Unknown"

let decided = function
  | Exec.Check.Allow | Exec.Check.Forbid -> true
  | Exec.Check.Unknown _ -> false

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = string * float * string

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The run record: input sizes and configuration, one JSON line on
   stdout ahead of the result line. *)
let record fields =
  print_endline
    ("{\"record\": {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
    ^ "}}")

let result (t : tally) (metrics : metric list) =
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then die "metric %s is %f" name v)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0 && t.attempted > 0)
    (max 1 t.attempted) t.failed body

(* ------------------------------------------------------------------ *)
(* Traced-run layer accounting                                         *)
(* ------------------------------------------------------------------ *)

(* Layer self times, in microseconds, accumulated by name.  [span]
   wraps one call into a layer in an lib/obs span (so a Chrome export
   of the run shows the benchmark's layer boundaries) and charges its
   duration to [name]. *)
module Layers = struct
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 32

  let add name us =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r +. us
    | None -> Hashtbl.add tbl name (ref us)

  let get name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.

  let timed name f =
    let t0 = Obs.now_us () in
    let r = Obs.with_span name f in
    let dt = Obs.now_us () -. t0 in
    (r, dt)

  let span name f =
    let r, dt = timed name f in
    add name dt;
    r

  (* milliseconds per pass *)
  let ms ~passes name = get name /. 1000. /. float_of_int (max 1 passes)
end

(* Counters lib/obs already keeps, read by name. *)
let counter name = Obs.Counter.value (Obs.Counter.make name)

let hist name = Obs.hist_snapshot (Obs.Histogram.make name)
