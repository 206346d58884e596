(* Process supervision, written once.  {!Pool} forks one child per
   item and {!Campaign} one per shard; both spawn, wait, reap and
   classify through here, and decide retry against give-up on the one
   ladder.  {!Serve}'s workers are domains (they cannot be killed, and
   their warm caches are the point of the daemon), so it shares only
   the per-key strikes and the flight-recorder arming.

   Children report over a pipe: the parent selects on the pipes with a
   timeout no later than the earliest deadline, so it wakes when a
   child finishes instead of polling, and SIGKILLs whoever overruns.
   Only the pids spawned here are ever waited for — a library caller's
   own children keep their exit statuses. *)

let exit_mem_cap = 97
let exit_protocol = 98
let exit_uncaught = 99

type 'a child = {
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t; (* the marshalled value, accumulated as it streams in *)
  mutable eof : bool;
  deadline : float option;
  mutable killed : bool; (* SIGKILLed here for overrunning [deadline] *)
}

let pid c = c.pid

let arm_flight ?interval_us ?last dir =
  if not (Obs.enabled ()) then Obs.set_enabled true;
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  Obs.flight_start ?interval_us ?last
    (Filename.concat dir (Printf.sprintf "flight-%d.jsonl" (Unix.getpid ())))

(* Runs in the child: never returns, and [_exit]s without touching the
   parent's buffers or [at_exit] hooks. *)
let child_main ?mem_limit_mb ?flight fd f =
  (match mem_limit_mb with
  | None -> ()
  | Some mb ->
      (* checked at the end of every major collection: catches runaway
         allocation even in code that never ticks a budget *)
      ignore
        (Gc.create_alarm (fun () ->
             if Exec.Budget.heap_mb () > mb then Unix._exit exit_mem_cap)));
  if Obs.enabled () then Obs.reset ();
  (* armed post-fork: the parent's recorder, if any, stays the parent's *)
  Option.iter (fun (dir, last) -> arm_flight ?last dir) flight;
  match f () with
  | exception _ -> Unix._exit exit_uncaught
  | v -> (
      if Obs.flight_active () then Obs.flight_stop ();
      match
        let oc = Unix.out_channel_of_descr fd in
        Marshal.to_channel oc v [];
        flush oc
      with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit exit_protocol)

let spawn ?timeout ?mem_limit_mb ?flight f =
  let r, w = Unix.pipe () in
  (* the child inherits pending output; flush so nothing is written twice *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      child_main ?mem_limit_mb ?flight w f
  | pid ->
      Unix.close w;
      Unix.set_nonblock r;
      {
        pid;
        fd = r;
        buf = Buffer.create 4096;
        eof = false;
        deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout;
        killed = false;
      }

type 'a outcome =
  | Value of 'a
  | Exit of int
  | Signal of int
  | Deadline
  | Heap_cap
  | Truncated

(* Pull whatever the non-blocking pipe holds: children stream their
   value and exit, so a big result cannot deadlock on a full pipe. *)
let drain c =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.eof <- true
    | n ->
        Buffer.add_subbytes c.buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  if not c.eof then go ()

let classify c = function
  | Unix.WEXITED 0 -> (
      match Marshal.from_string (Buffer.contents c.buf) 0 with
      | v -> Value v
      | exception _ -> Truncated)
  | Unix.WEXITED n when n = exit_mem_cap -> Heap_cap
  | Unix.WEXITED n -> Exit n
  | Unix.WSIGNALED _ when c.killed -> Deadline
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signal s

let reap c =
  let finish status =
    drain c;
    Unix.close c.fd;
    Some (classify c status)
  in
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> None
  | _, status -> finish status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      (* reaped behind our back: the pipe is all the evidence left *)
      finish
        (if c.killed then Unix.WSIGNALED Sys.sigkill else Unix.WEXITED 0)

let wait ?until children =
  let rec loop () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        match c.deadline with
        | Some d when (not c.killed) && now >= d ->
            c.killed <- true;
            (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ())
      children;
    let reaped =
      List.filter_map (fun c -> Option.map (fun o -> (c, o)) (reap c)) children
    in
    let expired = match until with Some u -> now >= u | None -> false in
    if reaped <> [] || expired || (children = [] && until = None) then reaped
    else
      let next =
        List.fold_left
          (fun acc c ->
            match c.deadline with
            | Some d when not c.killed -> Float.min acc d
            | _ -> acc)
          (Option.value ~default:infinity until)
          children
      in
      let timeout =
        (* a child at EOF closed its pipe on the way out but is not yet
           a zombie: poll briefly rather than sleep to the deadline *)
        if List.exists (fun c -> c.eof) children then 0.001
        else if next = infinity then -1.
        else Float.max 0. (next -. now)
      in
      let fds =
        List.filter_map (fun c -> if c.eof then None else Some c.fd) children
      in
      match Unix.select fds [] [] timeout with
      | ready, _, _ ->
          List.iter (fun c -> if List.mem c.fd ready then drain c) children;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  loop ()

type decision = Retry of float | Give_up

(* the strike that gives a key up *)
let last_strike = 2

let decide ~backoff n =
  if n >= last_strike then Give_up
  else Retry (backoff *. (2. ** float_of_int (n - 1)))

module Strikes = struct
  type 'k t = ('k, int) Hashtbl.t

  let create () = Hashtbl.create 16

  let add t k =
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t k) in
    Hashtbl.replace t k n;
    n

  let given_up t k =
    match Hashtbl.find_opt t k with Some n -> n >= last_strike | None -> false

  let n_given_up t =
    Hashtbl.fold (fun _ s n -> if s >= last_strike then n + 1 else n) t 0
end
