(* A single shared split-free bus: one transaction at a time, granted in
   request order.  Arbitration is a timestamp race: a transaction asked
   for at [at] is granted at [max at free_at] and occupies the bus for
   msg_fixed + words * msg_per_word cycles (the same wire costs the
   point-to-point network charges, minus per-hop switching — a bus has no
   switches).  The grant callback runs when the occupancy ends, so every
   transaction's state changes are atomic with respect to the next grant.

   The bus is a reliable medium: fault plans (Lcm_net.Faults) model lossy
   point-to-point links and do not apply here — a snooping transaction is
   observed by every agent by construction. *)

module Stats = Lcm_util.Stats

type kind = Rd | Rdx | Upgr | Flush

let kind_to_string = function
  | Rd -> "bus_rd"
  | Rdx -> "bus_rdx"
  | Upgr -> "bus_upgr"
  | Flush -> "bus_flush"

(* Pooled grant record for [transact_call]: carries the bus, the caller's
   preallocated grant handler, its payload and an int rider through the
   engine's allocation-free scheduling path.  Handler and payload are
   stored as [Obj.t] — [transact_call] pairs them under one type variable,
   the same discipline as [Lcm_sim.Engine.schedule_call]. *)
type grant_cell = {
  mutable g_bus : Obj.t;
  mutable g_h : Obj.t;
  mutable g_p : Obj.t;
  mutable g_x : int;
}

let dead_grant_h _ _ _ = failwith "Bus: grant cell used after release"
let dead_obj = Obj.repr "Bus.grant_cell: released"

let make_grant_cell () =
  { g_bus = dead_obj; g_h = Obj.repr dead_grant_h; g_p = dead_obj; g_x = 0 }

let poison_grant_cell c =
  c.g_bus <- dead_obj;
  c.g_h <- Obj.repr dead_grant_h;
  c.g_p <- dead_obj

type t = {
  engine : Lcm_sim.Engine.t;
  costs : Lcm_sim.Costs.t;
  mutable free_at : int;  (* when the current occupancy ends *)
  gpool : grant_cell Lcm_util.Pool.t;
  h_transactions : Stats.Handle.counter;
  h_rd : Stats.Handle.counter;
  h_rdx : Stats.Handle.counter;
  h_upgr : Stats.Handle.counter;
  h_flush : Stats.Handle.counter;
  h_stall : Stats.Handle.counter;
  h_busy : Stats.Handle.counter;
}

let create ~engine ~costs ~stats () =
  {
    engine;
    costs;
    free_at = 0;
    gpool = Lcm_util.Pool.create ~poison:poison_grant_cell ~make:make_grant_cell ();
    h_transactions = Stats.counter stats "bus.transactions";
    h_rd = Stats.counter stats "bus.rd";
    h_rdx = Stats.counter stats "bus.rdx";
    h_upgr = Stats.counter stats "bus.upgr";
    h_flush = Stats.counter stats "bus.flush";
    h_stall = Stats.counter stats "bus.arb_stall_cycles";
    h_busy = Stats.counter stats "bus.busy_cycles";
  }

let busy_until t = t.free_at

let occupancy t ~words =
  t.costs.Lcm_sim.Costs.msg_fixed + (words * t.costs.Lcm_sim.Costs.msg_per_word)

(* Arbitrate: account the transaction and return its completion cycle. *)
let arbitrate t ~kind ~at ~words =
  let grant = max at t.free_at in
  let finish = grant + occupancy t ~words in
  t.free_at <- finish;
  Stats.Handle.incr t.h_transactions;
  Stats.Handle.incr
    (match kind with
    | Rd -> t.h_rd
    | Rdx -> t.h_rdx
    | Upgr -> t.h_upgr
    | Flush -> t.h_flush);
  Stats.Handle.add t.h_stall (grant - at);
  Stats.Handle.add t.h_busy (finish - grant);
  finish

(* Static grant dispatcher: runs at occupancy end, recycles the cell
   before entering the protocol handler. *)
let run_grant (c : grant_cell) finish _i2 =
  let t : t = Obj.obj c.g_bus in
  (* a completed bus transaction is semantic progress for the stall
     watchdog armed by fault plans *)
  Lcm_sim.Engine.notify_progress t.engine;
  let h : Obj.t -> int -> int -> unit = Obj.obj c.g_h in
  let p = c.g_p and x = c.g_x in
  poison_grant_cell c;
  Lcm_util.Pool.release t.gpool c;
  h p finish x

let transact_call (type a) t ~kind ~at ~words (h : a -> int -> int -> unit)
    (p : a) x =
  let finish = arbitrate t ~kind ~at ~words in
  let c = Lcm_util.Pool.acquire t.gpool in
  c.g_bus <- Obj.repr t;
  c.g_h <- Obj.repr h;
  c.g_p <- Obj.repr p;
  c.g_x <- x;
  Lcm_sim.Engine.schedule_call t.engine ~at:finish run_grant c finish 0
