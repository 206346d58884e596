(* Cycle enumeration and validity: a candidate cycle is a sequence of edges
   whose endpoint directions agree at every junction, with at least two
   external (communication) edges, location assignment that closes, and a
   canonical rotation to avoid duplicates. *)

let junction_ok e1 e2 =
  match (Edge.tgt_dir e1, Edge.src_dir e2) with
  | Some d1, Some d2 -> d1 = d2
  | _ -> true

(* Directions must agree around the whole cycle, including the wrap. *)
let dirs_ok cycle =
  match cycle with
  | [] -> false
  | first :: _ ->
      let rec go = function
        | [ last ] -> junction_ok last first
        | e1 :: (e2 :: _ as rest) -> junction_ok e1 e2 && go rest
        | [] -> false
      in
      go cycle

let n_external cycle = List.length (List.filter Edge.external_ cycle)
let n_diff_loc cycle = List.length (List.filter Edge.diff_loc cycle)

(* Location closure: locations advance modulo the number of diff-loc edges;
   with exactly one such edge its endpoints would collapse into the same
   location, so demand zero or at least two. *)
let locs_ok cycle =
  let d = n_diff_loc cycle in
  d = 0 || d >= 2

(* Avoid degenerate tests: two adjacent external edges of the same kind on
   the same location collapse; also a same-loc po edge next to a com edge
   is fine, so only basic checks here — the generator validates the final
   test against its candidate executions anyway. *)
let sane cycle = dirs_ok cycle && n_external cycle >= 2 && locs_ok cycle

(* Canonical representative of a cycle up to rotation. *)
let rotations cycle =
  let n = List.length cycle in
  let rec rot k l =
    if k = 0 then l
    else match l with [] -> [] | x :: rest -> rot (k - 1) (rest @ [ x ])
  in
  List.init n (fun k -> rot k cycle)

(* Each edge is named once and rotates with its name, so each rotation's
   key is one concatenation. *)
let canonical cycle =
  let named = List.map (fun e -> (e, Edge.to_string e)) cycle in
  let key c = String.concat "+" (List.map snd c) in
  let best, _ =
    List.fold_left
      (fun ((_, best_key) as acc) c ->
        let k = key c in
        if k < best_key then (c, k) else acc)
      (named, key named) (rotations named)
  in
  List.map fst best

let is_canonical cycle = canonical cycle = cycle

(* All canonical, sane cycles of the given length over a vocabulary. *)
let enumerate ?(vocabulary = Edge.vocabulary) n =
  let rec go k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.map (fun e -> e :: rest) vocabulary)
        (go (k - 1))
  in
  List.filter (fun c -> sane c && is_canonical c) (go n)

let name cycle = String.concat "+" (List.map Edge.to_string cycle)
