type t =
  | Crossbar
  | Mesh2d of { cols : int }
  | Fat_tree of { arity : int }

let negative_id name v =
  invalid_arg
    (Printf.sprintf "Topology.hops: %s %d out of range (must be >= 0)" name v)

let hops topo ~src ~dst =
  if src < 0 then negative_id "src" src;
  if dst < 0 then negative_id "dst" dst;
  if src = dst then 0
  else
    match topo with
    | Crossbar -> 1
    | Mesh2d { cols } ->
      if cols <= 0 then invalid_arg "Topology.hops: cols must be positive";
      let sx = src mod cols and sy = src / cols in
      let dx = dst mod cols and dy = dst / cols in
      abs (sx - dx) + abs (sy - dy)
    | Fat_tree { arity } ->
      if arity <= 1 then invalid_arg "Topology.hops: arity must be >= 2";
      (* Height of the lowest common ancestor: divide both leaf ids by the
         arity until they fall into the same subtree. *)
      let rec lca_height a b h = if a = b then h else lca_height (a / arity) (b / arity) (h + 1) in
      2 * lca_height src dst 0

let spellings = "crossbar, mesh:<cols> or fattree:<arity>"

let of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "crossbar" ] -> Ok Crossbar
  | [ "mesh"; c ] -> (
    match int_of_string_opt c with
    | Some cols when cols > 0 -> Ok (Mesh2d { cols })
    | Some _ | None -> Error "mesh: expected positive column count")
  | [ "fattree"; a ] -> (
    match int_of_string_opt a with
    | Some arity when arity > 1 -> Ok (Fat_tree { arity })
    | Some _ | None -> Error "fattree: expected arity >= 2")
  | _ -> Error (Printf.sprintf "unknown topology %S (expected %s)" s spellings)

let to_string = function
  | Crossbar -> "crossbar"
  | Mesh2d { cols } -> Printf.sprintf "mesh:%d" cols
  | Fat_tree { arity } -> Printf.sprintf "fattree:%d" arity
