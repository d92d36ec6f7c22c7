(* Page [p] holds blocks [p * page_size] to [(p + 1) * page_size - 1] as
   ['a option] slots, so a hit hands back the stored [Some v].  An
   unallocated page is the empty array.  64 slots keep a page at 512 bytes:
   a node that touches a few blocks in each of many other nodes' regions
   pays a page per region, and 256-slot pages raised the paper-figures
   peak RSS by about 10% against the hash tables, where 64 slots keep it
   within about 3%. *)

let page_bits = 6
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type 'a t = { mutable pages : 'a option array array; mutable length : int }

let create () = { pages = [||]; length = 0 }

let negative fn b =
  invalid_arg (Printf.sprintf "Blocktbl.%s: negative block %d" fn b)

(* A negative block shifts to a page index past any array length, so the
   bounds test alone sends it to the cold branch. *)
let[@inline] find_opt t b =
  let p = b lsr page_bits in
  if p < Array.length t.pages then
    let page = Array.unsafe_get t.pages p in
    if Array.length page = 0 then None
    else Array.unsafe_get page (b land page_mask)
  else if b < 0 then negative "find_opt" b
  else None

let mem t b =
  if b < 0 then negative "mem" b;
  match find_opt t b with Some _ -> true | None -> false

(* The page that holds [b], allocated (and the directory grown) on demand. *)
let page_for fn t b =
  if b < 0 then negative fn b;
  let p = b lsr page_bits in
  let n = Array.length t.pages in
  if p >= n then begin
    let pages = Array.make (max (p + 1) (2 * n)) [||] in
    Array.blit t.pages 0 pages 0 n;
    t.pages <- pages
  end;
  let page = t.pages.(p) in
  if Array.length page > 0 then page
  else begin
    let page = Array.make page_size None in
    t.pages.(p) <- page;
    page
  end

let replace t b v =
  let page = page_for "replace" t b in
  let i = b land page_mask in
  (match page.(i) with None -> t.length <- t.length + 1 | Some _ -> ());
  page.(i) <- Some v

let add t b v =
  let page = page_for "add" t b in
  let i = b land page_mask in
  match page.(i) with
  | Some _ ->
    invalid_arg (Printf.sprintf "Blocktbl.add: block %d already bound" b)
  | None ->
    t.length <- t.length + 1;
    page.(i) <- Some v

let remove t b =
  let p = b lsr page_bits in
  if p < Array.length t.pages then begin
    let page = t.pages.(p) in
    let i = b land page_mask in
    if Array.length page > 0 then
      match page.(i) with
      | Some _ ->
        page.(i) <- None;
        t.length <- t.length - 1
      | None -> ()
  end
  else if b < 0 then negative "remove" b

let length t = t.length

let fold f t acc =
  let pages = t.pages in
  let acc = ref acc in
  for p = 0 to Array.length pages - 1 do
    let page = pages.(p) in
    for i = 0 to Array.length page - 1 do
      match page.(i) with
      | Some v -> acc := f ((p lsl page_bits) lor i) v !acc
      | None -> ()
    done
  done;
  !acc

let iter f t = fold (fun b v () -> f b v) t ()
