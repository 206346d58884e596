(** Process supervision, written once for every front end that forks:
    {!Pool} (one child per item) and {!Campaign} (one child per shard)
    run their workers through {!spawn} and {!wait}; {!Serve}, whose
    workers are domains that cannot be killed, shares only the retry
    ladder's per-key strikes and {!arm_flight}.

    A child runs a thunk and marshals its value back over a pipe.
    {!wait} selects on the children's pipes, bounded by the earliest
    deadline, SIGKILLs any child past its deadline and reaps only the
    pids it spawned, classifying every exit as one {!outcome}. *)

(** {1 Children} *)

type 'a child

val pid : 'a child -> int

val exit_mem_cap : int
(** A child's exit code when its [Gc]-alarm heap cap fired (97). *)

val exit_protocol : int
(** A child's exit code when it could not write its value (98). *)

val exit_uncaught : int
(** A child's exit code when its thunk raised (99). *)

val arm_flight : ?interval_us:float -> ?last:int -> string -> unit
(** Arm this process's crash flight recorder on
    [<dir>/flight-<pid>.jsonl] ({!Obs.flight_start}), creating [dir]
    and switching the collector on (the recorder needs the span
    ring). *)

val spawn :
  ?timeout:float ->
  ?mem_limit_mb:int ->
  ?flight:string * int option ->
  (unit -> 'a) ->
  'a child
(** [spawn f] forks a child that runs [f] and marshals its value back.
    In the child the observability collector is reset (the parent's
    spans are not re-reported), [mem_limit_mb] arms a [Gc] alarm that
    exits {!exit_mem_cap}, and [flight = (dir, last)] arms the flight
    recorder through {!arm_flight} for the thunk's duration.  [timeout]
    (seconds from now) is the deadline past which {!wait} SIGKILLs the
    child. *)

(** How a reaped child ended. *)
type 'a outcome =
  | Value of 'a  (** exit 0 with a complete value on the pipe *)
  | Exit of int  (** any other exit code *)
  | Signal of int  (** killed by a signal {!wait} did not send *)
  | Deadline  (** SIGKILLed by {!wait} past its deadline *)
  | Heap_cap  (** exit {!exit_mem_cap} *)
  | Truncated  (** exit 0, but the pipe held no complete value *)

val wait : ?until:float -> 'a child list -> ('a child * 'a outcome) list
(** Block until at least one of the children has been reaped, the
    absolute time [until] has passed, or a signal interrupts the wait;
    return the reaped children with their outcomes (possibly none).
    Children past their deadline are SIGKILLed on the way.  Never
    touches a pid it did not spawn: a child someone else reaped is
    judged by its pipe alone. *)

(** {1 The retry ladder} *)

type decision = Retry of float  (** after this many seconds *) | Give_up

val decide : backoff:float -> int -> decision
(** After strike [n]: strike 1 retries after [backoff]·2{^n-1}, strike
    2 gives up. *)

(** Strike counts per key, for a front end that keeps them in memory
    ({!Serve}'s fingerprints; {!Campaign} keeps its in the manifest so
    they survive [kill -9]). *)
module Strikes : sig
  type 'k t

  val create : unit -> 'k t

  val add : 'k t -> 'k -> int
  (** Count one more strike against the key; the new count. *)

  val given_up : 'k t -> 'k -> bool
  (** Whether the ladder has given the key up. *)

  val n_given_up : 'k t -> int
end
