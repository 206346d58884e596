(* The model registry: each built-in model once — key, aliases, display
   name, oracle and applicability.  Oracles are lazy so that a binary
   pays for parsing and compiling only the cat sources it uses. *)

type t = {
  key : string;
  aliases : string list;
  name : string;
  oracle : Exec.Oracle.t Lazy.t;
  applies : Litmus.Ast.t -> bool;
}

(* [make name] builds the oracle, named [name]. *)
let entry ~key ?(aliases = []) ?(applies = fun _ -> true) name make =
  { key; aliases; name; oracle = lazy (make name); applies }

let of_cat ~key ~name model =
  entry ~key name (fun name -> Cat.to_oracle ~name model)

(* A native operational model explained by its shipped cat twin: the
   twin defines the same checks, and its engine decomposes them. *)
let native twin (module M : Exec.Check.MODEL) name =
  Exec.Oracle.make ~name
    ~model:(fun _ -> (module M : Exec.Check.MODEL))
    ~explainer:(Cat.explainer (Cat.parse twin))
    ()

let lk = entry ~key:"lk" ~aliases:[ "lkmm"; "linux" ] "LK" (fun _ -> Lkmm.oracle)

let lk_cat =
  entry ~key:"lk-cat" ~aliases:[ "cat" ] "LK(cat)" (fun name ->
      Cat.to_oracle ~name (Lazy.force Cat.lk))

let sc = entry ~key:"sc" "SC" (native Cat.Stdmodels.sc (module Models.Sc))

let tso =
  entry ~key:"tso" ~aliases:[ "x86" ] "TSO"
    (native Cat.Stdmodels.tso (module Models.Tso))

let c11 =
  entry ~key:"c11" ~applies:Models.C11.applicable "C11"
    (native Cat.Stdmodels.c11 (module Models.C11))

let c11_psc =
  entry ~key:"c11-psc" ~aliases:[ "rc11" ] ~applies:Models.C11.applicable
    "C11+psc"
    (native Cat.Stdmodels.c11_psc (module Models.C11.Strengthened))

let all = [ lk; lk_cat; sc; tso; c11; c11_psc ]
let oracle t = Lazy.force t.oracle

let verdict t test =
  if t.applies test then Some (Exec.Oracle.run (oracle t) test).Exec.Check.verdict
  else None

let names_doc =
  String.concat ", "
    (List.map
       (fun t ->
         match t.aliases with
         | [] -> t.key
         | a -> Printf.sprintf "%s (%s)" t.key (String.concat ", " a))
       all)

let find name =
  let lc = String.lowercase_ascii name in
  match List.find_opt (fun t -> List.mem lc (t.key :: t.aliases)) all with
  | Some t -> Ok t
  | None when Filename.check_suffix name ".cat" && Sys.file_exists name ->
      Ok (of_cat ~key:name ~name (Cat.load_file name))
  | None ->
      Error
        (Printf.sprintf "unknown model: %s (registered: %s; or a .cat file)"
           name names_doc)
