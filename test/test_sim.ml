(* Tests for the discrete-event engine and cost model. *)

open Lcm_sim

let test_engine_empty () =
  let e = Engine.create () in
  Alcotest.(check bool) "no step" false (Engine.step e);
  Alcotest.(check int) "now 0" 0 (Engine.now e)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:10 (fun () -> log := "b" :: !log);
  Engine.schedule e ~at:5 (fun () -> log := "a" :: !log);
  Engine.schedule e ~at:10 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time then fifo order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 10 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:10 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: at=5 is before now=10")
    (fun () -> Engine.schedule e ~at:5 (fun () -> ()))

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule e ~at:(Engine.now e + 3) (fun () ->
          incr hits;
          chain (n - 1))
  in
  chain 5;
  Engine.run e;
  Alcotest.(check int) "all fired" 5 !hits;
  Alcotest.(check int) "time accumulates" 15 (Engine.now e);
  Alcotest.(check int) "processed" 5 (Engine.events_processed e)

let test_engine_limit () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule e ~at:(Engine.now e + 1) forever in
  forever ();
  Alcotest.(check bool) "limit trips" true
    (try
       Engine.run ~limit:100 e;
       false
     with Failure _ -> true)

let test_engine_limit_exact () =
  (* A budget that runs out exactly as the queue drains is a completed
     run, not a failure. *)
  let e = Engine.create () in
  Engine.run ~limit:0 e;
  Alcotest.(check int) "limit 0 on idle engine" 0 (Engine.events_processed e);
  Engine.schedule e ~at:1 (fun () -> ());
  Engine.schedule e ~at:2 (fun () -> ());
  Engine.run ~limit:2 e;
  Alcotest.(check int) "exact budget drains" 2 (Engine.events_processed e);
  Engine.schedule e ~at:3 (fun () -> ());
  Alcotest.(check bool) "limit 0 with pending work trips" true
    (try
       Engine.run ~limit:0 e;
       false
     with Failure _ -> true)

(* Regression: the stall watchdog must fire *before* the budget is
   charged.  The engine used to charge a budget event (and possibly tick
   the wall-clock guard) for the event a Stalled raise then refused to
   run; with a budget of exactly the executed event count, that
   double-charge surfaced as Budget_exhausted instead of Stalled. *)
let test_stalled_charges_no_budget () =
  Engine.with_budget ~max_events:64 (fun () ->
      let e = Engine.create () in
      Engine.set_stall_limit e (Some 5);
      (* a livelock: one event per cycle, none of them progress *)
      let rec tick () = Engine.schedule e ~at:(Engine.now e + 1) tick in
      tick ();
      let got =
        try
          Engine.run e;
          `Drained
        with
        | Engine.Stalled _ -> `Stalled
        | Engine.Budget_exhausted _ -> `Budget
      in
      (* the watchdog trips after 64 quiet events — exactly the budget, so
         any charge for the never-executed 65th event would flip this *)
      Alcotest.(check bool) "Stalled, not Budget_exhausted" true (got = `Stalled);
      Alcotest.(check int) "64 events executed" 64 (Engine.events_processed e);
      (* nothing was consumed for the refused event: with the watchdog
         disarmed, the budget trips at that same event *)
      Engine.set_stall_limit e None;
      let got2 =
        try
          Engine.run e;
          `Drained
        with
        | Engine.Budget_exhausted _ -> `Budget
        | Engine.Stalled _ -> `Stalled
      in
      Alcotest.(check bool) "budget intact up to the stall point" true
        (got2 = `Budget);
      Alcotest.(check int) "still 64 events" 64 (Engine.events_processed e))

(* Regression: a negative limit used to behave as unlimited (the countdown
   started below zero and never hit it). *)
let test_engine_negative_limit_rejected () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~at:1 (fun () -> fired := true);
  Alcotest.check_raises "negative limit" (Invalid_argument "Engine.run: limit < 0")
    (fun () -> Engine.run ~limit:(-1) e);
  Alcotest.(check bool) "nothing ran" false !fired;
  Alcotest.(check int) "event still queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "engine still usable" true !fired

let test_trace_typed_events () =
  let tr = Trace.create ~capacity:8 in
  Trace.emit tr ~time:5 (Trace.Msg_send { tag = "get"; src = 0; dst = 1; words = 8 });
  Trace.emit tr ~time:9
    (Trace.Fault { kind = Trace.Read; node = 1; addr = 64; block = 8 });
  Trace.emit tr ~time:12 (Trace.Barrier_release { nnodes = 4 });
  Alcotest.(check int) "recorded" 3 (Trace.recorded tr);
  (match Trace.events tr with
  | [ (5, Trace.Msg_send { tag = "get"; _ }); (9, Trace.Fault _); (12, _) ] -> ()
  | _ -> Alcotest.fail "unexpected event list");
  Alcotest.(check (list string)) "render matches legacy formats"
    [
      "[t=5] msg get 0->1 (8w)";
      "[t=9] read fault node 1 addr 64 (block 8)";
      "[t=12] barrier release (4 nodes)";
    ]
    (Trace.dump tr)

let test_trace_wraparound_typed () =
  let tr = Trace.create ~capacity:2 in
  List.iteri
    (fun i name -> Trace.emit tr ~time:i (Trace.Directive { node = 0; name }))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "all recorded" 3 (Trace.recorded tr);
  (match Trace.events tr with
  | [ (1, Trace.Directive { name = "b"; _ }); (2, Trace.Directive { name = "c"; _ }) ]
    -> ()
  | _ -> Alcotest.fail "ring must keep the newest events, oldest first")

let test_engine_pending () =
  let e = Engine.create () in
  Engine.schedule e ~at:1 (fun () -> ());
  Engine.schedule e ~at:2 (fun () -> ());
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  ignore (Engine.step e);
  Alcotest.(check int) "pending after step" 1 (Engine.pending e)

let test_costs_default_sane () =
  let c = Costs.default in
  Alcotest.(check bool) "remote >> local" true
    (c.Costs.msg_fixed + c.Costs.handler_occupancy > 50 * c.Costs.cpu_op)

let test_costs_free () =
  Alcotest.(check int) "free fault" 0 Costs.free.Costs.fault_trap

let test_costs_scale () =
  let c = Costs.scale Costs.default 2.0 in
  Alcotest.(check int) "msg doubled" (2 * Costs.default.Costs.msg_fixed) c.Costs.msg_fixed;
  Alcotest.(check int) "cpu_op unchanged" Costs.default.Costs.cpu_op c.Costs.cpu_op

let prop_events_fire_in_time_order =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 1000))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun t -> Engine.schedule e ~at:t (fun () -> fired := t :: !fired)) times;
      Engine.run e;
      let order = List.rev !fired in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [ _ ] | [] -> true
      in
      nondecreasing order && List.length order = List.length times)

let prop_engine_now_never_decreases =
  QCheck.Test.make ~name:"clock monotone under cascading schedules" ~count:50
    QCheck.(list (int_bound 50))
    (fun delays ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun d ->
          Engine.schedule e ~at:(Engine.now e + d) (fun () ->
              if Engine.now e < !last then ok := false;
              last := Engine.now e))
        delays;
      Engine.run e;
      !ok)

let () =
  Alcotest.run "lcm_sim"
    [
      ( "engine",
        [
          ("empty", `Quick, test_engine_empty);
          ("ordering", `Quick, test_engine_ordering);
          ("past rejected", `Quick, test_engine_past_rejected);
          ("cascading", `Quick, test_engine_cascading);
          ("event limit", `Quick, test_engine_limit);
          ("event limit exact", `Quick, test_engine_limit_exact);
          ("stall charges no budget", `Quick, test_stalled_charges_no_budget);
          ("negative limit rejected", `Quick, test_engine_negative_limit_rejected);
          ("pending", `Quick, test_engine_pending);
        ] );
      ( "trace",
        [
          ("typed events", `Quick, test_trace_typed_events);
          ("wraparound", `Quick, test_trace_wraparound_typed);
        ] );
      ( "costs",
        [
          ("default sane", `Quick, test_costs_default_sane);
          ("free", `Quick, test_costs_free);
          ("scale", `Quick, test_costs_scale);
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_events_fire_in_time_order; prop_engine_now_never_decreases ] );
    ]
