(* Host-time spans recorded by the benchmark around its own calls into
   the simulator's layers.

   A span has a name, a start and an end (seconds on the host clock), the
   operation it belongs to and the span that encloses it.  Spans stay in
   memory while the run lasts; [to_chrome] writes them out at the end as
   Chrome trace_event JSON ("X" complete events, one track per operation
   kind) that [Lcm_harness.Traceview.parse] reads back.

   Self time is a span's duration minus the time its child spans cover.
   The benchmark is single-threaded and spans nest strictly, so children
   never overlap and their durations simply add. *)

type span = {
  name : string;
  op : int;  (* spans of one operation share this id *)
  parent : int;  (* index of the enclosing span, -1 at top level *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (* summed duration of direct children *)
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int;  (* innermost open span, -1 if none *)
  mutable next_op : int;
}

let create () = { spans = [||]; n = 0; open_ = -1; next_op = 0 }

let new_op t =
  t.next_op <- t.next_op + 1;
  t.next_op

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

(* [record t ~op name f] runs [f] inside a span.  With [t = None] it is
   exactly [f ()]: the untimed path takes no clock reads. *)
let record t ~op name f =
  match t with
  | None -> f ()
  | Some t ->
    let idx = t.n in
    let parent = t.open_ in
    let s =
      { name; op; parent; start = Unix.gettimeofday (); stop = 0.0; child_s = 0.0 }
    in
    push t s;
    t.open_ <- idx;
    let close () =
      s.stop <- Unix.gettimeofday ();
      t.open_ <- parent;
      if parent >= 0 then
        let p = t.spans.(parent) in
        p.child_s <- p.child_s +. (s.stop -. s.start)
    in
    Fun.protect ~finally:close f

let duration s = s.stop -. s.start
let self_time s = duration s -. s.child_s

(* Summed self time per span name. *)
let self_by_name t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (prev +. self_time s)
  done;
  tbl

let self_of tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let count t = t.n

let to_chrome t =
  let module J = Lcm_harness.Report.Json in
  let t0 = if t.n = 0 then 0.0 else t.spans.(0).start in
  let us x = Float.round ((x -. t0) *. 1e6) in
  let events =
    List.init t.n (fun i ->
        let s = t.spans.(i) in
        J.Obj
          [
            ("name", J.Str s.name);
            ("ph", J.Str "X");
            ("ts", J.Float (us s.start));
            ("dur", J.Float (Float.max 0.0 (us s.stop -. us s.start)));
            ("pid", J.Int 1);
            ("tid", J.Int 1);
            ( "args",
              J.Obj
                [
                  ("op", J.Int s.op);
                  ("span", J.Int i);
                  ("parent", J.Int s.parent);
                  ("self_us", J.Float (Float.round (self_time s *. 1e6)));
                ] );
          ])
  in
  J.to_string ~indent:0 (J.Obj [ ("traceEvents", J.Arr events) ])
