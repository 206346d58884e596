(* A checking oracle: one first-class value bundling every engine a
   model ships — the scalar model (always), the bit-plane batched
   evaluator (optional) and the symbolic SAT engine (optional) — so
   engine selection is one [backend] switch at the call site instead of
   ad-hoc (model, batch_fn) pairing threaded through every layer.

   Oracles are constructed once, next to the model they wrap
   ([Lkmm.oracle], [Cat.to_oracle], the operational simulators'
   scalar-only wrappings) and passed as a single value through the
   harness (Runner, Pool, Serve, Campaign, Sweep) and the CLIs. *)

type backend_request = Check.backend

type explainer = {
  explain : Execution.t -> Explain.t list;
  checks : string list;
}

type t = {
  name : string;  (* the model's name, stable across engines *)
  model : Budget.t option -> (module Check.MODEL);
  batch : (Budget.t option -> Check.batch_fn) option;
  solve : Solve.solve_fn option;
  explainer : explainer option;
}

let c_fallback = Obs.Counter.make "sat.fallback"

let make ~name ~model ?batch ?solve ?explainer () =
  { name; model; batch; solve; explainer }

(* Most scalar models are budget-oblivious modules; wrap them without
   ceremony, taking the oracle's name from the model's own. *)
let of_model (module M : Check.MODEL) =
  make ~name:M.name ~model:(fun _ -> (module M : Check.MODEL)) ()

(* The batch engine an enumerative request runs on: the oracle's, for
   [Batch] requests only — [Enum] is the scalar loop, and a [Sat]
   request that fell back stays scalar too. *)
let batch_for t budget (req : backend_request) =
  match req with
  | Check.Batch -> Option.map (fun mk -> mk budget) t.batch
  | Check.Enum | Check.Sat -> None

let run ?budget ?prefilter ?(explain = false) ?(backend = Check.Batch) t test =
  let explainer =
    if explain then Option.map (fun e -> e.explain) t.explainer else None
  in
  match (backend, t.solve) with
  | Check.Sat, Some solve -> solve ?budget ?explainer test
  | _ ->
      let r =
        Check.run ?budget ?prefilter ?batch:(batch_for t budget backend)
          ?explainer (t.model budget) test
      in
      if backend <> Check.Sat then r
      else begin
        (* requested symbolically, shipped enumeratively: fall back,
           loudly enough for reports to show it *)
        Obs.Counter.incr c_fallback;
        {
          r with
          Check.sat =
            Some { Check.conflicts = 0; decisions = 0; fallback = true };
        }
      end

(* Model-allowed outcomes, through the oracle's enumerative engines
   (the symbolic engine answers the per-test existential question, not
   the all-outcomes one; [Sat] requests degrade to the batched path). *)
let allowed_outcomes ?budget ?prefilter ?(backend = Check.Batch) t test =
  let backend = if backend = Check.Sat then Check.Batch else backend in
  Check.allowed_outcomes ?budget ?prefilter
    ?batch:(batch_for t budget backend)
    (t.model budget) test
