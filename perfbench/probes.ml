(* Fixed-input layer probes, and the count replica for stress cases.

   This is the only file of the benchmark that calls the simulator's
   inner layers (Heap, Engine, Network, Bus, Machine, Proto) directly;
   the workloads go through the harness- and app-level APIs.  Each probe
   runs one layer on a fixed input and reports that layer's own host cost
   per operation: where an operation also pays for lower layers (a
   network delivery is an engine event, a remote miss is messages plus
   events), the probe subtracts those layers' probed costs, so the
   ledger can multiply each probe by its own count without counting any
   layer twice. *)

open Lcm_util
module Engine = Lcm_sim.Engine
module Costs = Lcm_sim.Costs
module Network = Lcm_net.Network
module Bus = Lcm_net.Bus
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Proto = Lcm_core.Proto
module Gmem = Lcm_mem.Gmem
module Stress = Lcm_harness.Stress

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median over five runs of [f], which returns (seconds, operations);
   the probe's value is nanoseconds per operation. *)
let ns_per_op f =
  median
    (List.init 5 (fun _ ->
         let s, ops = f () in
         s *. 1e9 /. float_of_int (max 1 ops)))

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Deterministic small delays, so queue keys spread like real traffic. *)
let delay i = 1 + ((i * 7919) land 63)

(* ---------------- util ---------------- *)

let heap_add_pop ~live =
  let n = 400_000 in
  ns_per_op (fun () ->
      let h = Heap.create ~hint:live () in
      for i = 0 to live - 1 do
        Heap.add h ~key:(delay i) i
      done;
      timed (fun () ->
          for i = 1 to n do
            let k = Heap.top_key h in
            let v = Heap.pop_exn h in
            Heap.add h ~key:(k + delay i) v
          done;
          n))

let stats_incr () =
  let n = 10_000_000 in
  ns_per_op (fun () ->
      let s = Stats.create () in
      let c = Stats.counter s "probe" in
      timed (fun () ->
          for _ = 1 to n do
            Stats.Handle.incr c
          done;
          n))

(* ---------------- sim ---------------- *)

let live_events = 32
let engine_events = 300_000

(* Schedule plus dispatch with [live_events] in the queue: every event
   re-schedules one successor until the quota is spent.  The closure form
   allocates a fresh closure per event, as the closure call sites do. *)
let engine_schedule () =
  ns_per_op (fun () ->
      let e = Engine.create () in
      let left = ref engine_events in
      let rec tick i () =
        if !left > 0 then begin
          decr left;
          Engine.schedule e ~at:(Engine.now e + delay i) (tick (i + 1))
        end
      in
      for i = 1 to live_events do
        Engine.schedule e ~at:(delay i) (tick i)
      done;
      timed (fun () ->
          Engine.run e;
          Engine.events_processed e))

let engine_schedule_call () =
  ns_per_op (fun () ->
      let e = Engine.create () in
      let left = ref engine_events in
      let rec h () i _ =
        if !left > 0 then begin
          decr left;
          Engine.schedule_call e ~at:(Engine.now e + delay i) h () (i + 1) 0
        end
      in
      for i = 1 to live_events do
        Engine.schedule_call e ~at:(delay i) h () i 0
      done;
      timed (fun () ->
          Engine.run e;
          Engine.events_processed e))

(* ---------------- net ---------------- *)

let nnodes = 32
let topology = Lcm_net.Topology.Fat_tree { arity = 4 }

(* [live_events] messages circulate on a 32-node fat tree; each delivery
   sends the next hop.  Returns seconds, application deliveries and the
   engine events they took. *)
let circulate ?faults ~msgs () =
  let e = Engine.create () in
  let stats = Stats.create () in
  let net =
    Network.create ?faults ~engine:e ~costs:Costs.default ~stats ~topology
      ~nnodes ()
  in
  let left = ref msgs in
  let delivered = ref 0 in
  let rec h () arrival src =
    incr delivered;
    if !left > 0 then begin
      decr left;
      let dst = (src + 1 + (arrival land 7)) mod nnodes in
      Network.send_reliable_call net ~src ~dst ~words:8 ~tag:"probe" ~at:arrival
        h () dst
    end
  in
  for i = 0 to live_events - 1 do
    decr left;
    let src = i mod nnodes in
    Network.send_reliable_call net ~src ~dst:((src + 5) mod nnodes) ~words:8
      ~tag:"probe" ~at:0 h () ((src + 5) mod nnodes)
  done;
  let s, () = timed (fun () -> Engine.run e) in
  (s, !delivered, Engine.events_processed e)

let net_send ~engine_ns =
  ns_per_op (fun () ->
      let s, delivered, events = circulate ~msgs:200_000 () in
      (s -. (float_of_int events *. engine_ns *. 1e-9), delivered))

(* Reliable sends under the 5% chaos plan: acks, retransmissions and
   timers included, per application delivery.  The faulty path schedules
   closures, so the closure-form engine cost is subtracted. *)
let net_send_reliable_chaos ~engine_ns =
  let faults =
    match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed:7 with
    | Ok f -> f
    | Error e -> failwith e
  in
  ns_per_op (fun () ->
      let s, delivered, events = circulate ~faults ~msgs:50_000 () in
      (s -. (float_of_int events *. engine_ns *. 1e-9), delivered))

let bus_transact ~engine_ns =
  ns_per_op (fun () ->
      let e = Engine.create () in
      let stats = Stats.create () in
      let bus = Bus.create ~engine:e ~costs:Costs.default ~stats () in
      let left = ref 200_000 in
      let rec h () now _ =
        if !left > 0 then begin
          decr left;
          Bus.transact_call bus ~kind:Bus.Rd ~at:now ~words:8 h () 0
        end
      in
      for _ = 1 to 16 do
        Bus.transact_call bus ~kind:Bus.Rd ~at:0 ~words:8 h () 0
      done;
      let s, () = timed (fun () -> Engine.run e) in
      let events = Engine.events_processed e in
      ( s -. (float_of_int events *. engine_ns *. 1e-9),
        Stats.get stats "bus.transactions" ))

(* ---------------- tempest ---------------- *)

let machine ~nnodes policy =
  let m = Machine.create ~nnodes ~words_per_block:8 () in
  let p = Proto.install ~policy m in
  (m, p)

(* Load/store hits on the home node's own blocks, through Machine.spawn
   and the Memeff fast path. *)
let tempest_hit () =
  let words = 512 and rounds = 400 in
  ns_per_op (fun () ->
      let m, _ = machine ~nnodes:2 Lcm_core.Policy.stache in
      let base = Gmem.alloc (Machine.gmem m) ~dist:(Gmem.On 0) ~nwords:words in
      let body () =
        for _ = 1 to rounds do
          for w = 0 to words - 1 do
            Memeff.store (base + w) (Memeff.load (base + w) + 1)
          done
        done
      in
      (* first touch installs the lines; time the steady state *)
      Machine.spawn m (Machine.node m 0) (fun () ->
          for w = 0 to words - 1 do
            Memeff.store (base + w) 0
          done);
      Machine.run_to_quiescence m;
      timed (fun () ->
          Machine.spawn m (Machine.node m 0) body;
          Machine.run_to_quiescence m;
          2 * words * rounds))

(* ---------------- core ---------------- *)

(* One remote miss per block: node 1 reads the first word of [blocks]
   blocks homed on node 0.  The engine, network, bus and tempest shares
   are subtracted at their probed costs. *)
let remote_miss ~policy ~engine_ns ~net_ns ~bus_ns ~hit_ns =
  let blocks = 2_000 in
  ns_per_op (fun () ->
      let m, _ = machine ~nnodes:4 policy in
      let base =
        Gmem.alloc (Machine.gmem m) ~dist:(Gmem.On 0) ~nwords:(8 * blocks)
      in
      let e = Machine.engine m and stats = Machine.stats m in
      let ev0 = Engine.events_processed e in
      let s, () =
        timed (fun () ->
            Machine.spawn m (Machine.node m 1) (fun () ->
                for b = 0 to blocks - 1 do
                  ignore (Memeff.load (base + (8 * b)))
                done);
            Machine.run_to_quiescence m)
      in
      let events = Engine.events_processed e - ev0 in
      let lower =
        (float_of_int events *. engine_ns)
        +. (float_of_int (Stats.get stats "net.msgs") *. net_ns)
        +. (float_of_int (Stats.get stats "bus.transactions") *. bus_ns)
        +. (float_of_int blocks *. hit_ns)
      in
      (s -. (lower *. 1e-9), Stats.get stats "fault.read"))

(* LCM reconciliation: in a parallel phase each of three nodes writes
   its share of [blocks] blocks homed on node 0; only [Proto.reconcile]
   is timed, per reconciled block. *)
let reconcile ~engine_ns ~net_ns =
  let blocks = 600 in
  ns_per_op (fun () ->
      let m, p = machine ~nnodes:4 Lcm_core.Policy.lcm_mcc in
      let base =
        Gmem.alloc (Machine.gmem m) ~dist:(Gmem.On 0) ~nwords:(8 * blocks)
      in
      Proto.begin_parallel p;
      for n = 1 to 3 do
        Machine.spawn m (Machine.node m n) (fun () ->
            for b = 0 to blocks - 1 do
              if b mod 3 = n - 1 then begin
                let a = base + (8 * b) in
                Memeff.directive (Memeff.Mark_modification a);
                Memeff.store a n
              end
            done)
      done;
      Machine.run_to_quiescence m;
      let e = Machine.engine m and stats = Machine.stats m in
      let ev0 = Engine.events_processed e in
      let msgs0 = Stats.get stats "net.msgs" in
      let rb0 = Stats.get stats "lcm.reconciled_blocks" in
      let s, () = timed (fun () -> Proto.reconcile p) in
      let events = Engine.events_processed e - ev0 in
      let msgs = Stats.get stats "net.msgs" - msgs0 in
      let lower =
        (float_of_int events *. engine_ns) +. (float_of_int msgs *. net_ns)
      in
      (s -. (lower *. 1e-9), Stats.get stats "lcm.reconciled_blocks" - rb0))

type t = {
  heap_q32 : float;
  heap_q1024 : float;
  stats_incr : float;
  engine_schedule : float;
  engine_schedule_call : float;
  net_send : float;
  net_chaos : float;
  bus_transact : float;
  tempest_hit : float;
  dir_miss : float;
  snoop_miss : float;
  reconcile_block : float;
}

let run () =
  let engine_schedule = engine_schedule () in
  let engine_schedule_call = engine_schedule_call () in
  let engine_ns = engine_schedule_call in
  let net_send = net_send ~engine_ns in
  let bus_transact = bus_transact ~engine_ns in
  let tempest_hit = tempest_hit () in
  let miss policy =
    remote_miss ~policy ~engine_ns ~net_ns:net_send ~bus_ns:bus_transact
      ~hit_ns:tempest_hit
  in
  {
    heap_q32 = heap_add_pop ~live:32;
    heap_q1024 = heap_add_pop ~live:1024;
    stats_incr = stats_incr ();
    engine_schedule;
    engine_schedule_call;
    net_send;
    net_chaos = net_send_reliable_chaos ~engine_ns:engine_schedule;
    bus_transact;
    tempest_hit;
    dir_miss = miss Lcm_core.Policy.stache;
    snoop_miss = miss Lcm_core.Policy.mesi;
    reconcile_block = reconcile ~engine_ns ~net_ns:net_send;
  }

(* ---------------- tempest count boundary ---------------- *)

(* Count every load and store the simulated programs issue while [f]
   runs, by wrapping the process-wide Memeff fast-path hooks (every load
   and store asks them first).  Traced runs only: the wrapper costs a
   closure call per access. *)
let count_accesses n f =
  let l0 = !Memeff.fast_load and s0 = !Memeff.fast_store in
  (Memeff.fast_load :=
     fun a ->
       incr n;
       l0 a);
  (Memeff.fast_store :=
     fun a v ->
       incr n;
       s0 a v);
  Fun.protect
    ~finally:(fun () ->
      Memeff.fast_load := l0;
      Memeff.fast_store := s0)
    f

(* ---------------- stress count replica ---------------- *)

(* [Stress.run_case] returns only a verdict.  The traced run re-executes
   each case here, with the same machine, the same operations and the
   same post-segment reads, to read the counters the case produced.  The
   caller checks that the replica processed exactly as many engine events
   as [Stress.run_case] did, so the counts are the case's own. *)
type counts = { stats : Stats.t; events : int; cycles : int; accesses : int }

let stress_counts ?faults (prog : Stress.prog) =
  let nwords = prog.nblocks * prog.words_per_block in
  let m =
    Machine.create ?capacity_blocks:prog.capacity_blocks
      ?hw_cache_blocks:prog.hw_cache_blocks ?faults ~nnodes:prog.nnodes
      ~words_per_block:prog.words_per_block ~topology:prog.topology ~seed:17 ()
  in
  let p = Proto.install ~barrier:prog.barrier ~policy:prog.policy m in
  let base = Gmem.alloc (Machine.gmem m) ~dist:prog.dist ~nwords in
  List.iter
    (fun (bi, rop) ->
      Proto.register_reduction p
        ~base:(base + (bi * prog.words_per_block))
        ~nwords:prog.words_per_block rop)
    prog.reductions;
  List.iter (fun (w, v) -> Proto.poke p (base + w) v) prog.init;
  let exec ops () =
    List.iter
      (function
        | Stress.Load w -> ignore (Memeff.load (base + w))
        | Stress.Store (w, v) -> Memeff.store (base + w) v
        | Stress.Rmw (w, k) -> ignore (Memeff.rmw (base + w) (fun x -> x + k))
        | Stress.Accum (w, k) ->
          let rop = List.assoc (w / prog.words_per_block) prog.reductions in
          ignore
            (Memeff.rmw (base + w) (fun x -> rop.Lcm_core.Reduction.apply x k))
        | Stress.Mark w -> Memeff.directive (Memeff.Mark_modification (base + w))
        | Stress.Flush -> Memeff.directive Memeff.Flush_copies
        | Stress.Work n -> Memeff.work n
        | Stress.Yield -> Memeff.yield ())
      ops
  in
  let run_segment ops =
    Array.iteri (fun nid opl -> Machine.spawn m (Machine.node m nid) (exec opl)) ops;
    Machine.run_to_quiescence m
  in
  let accesses = ref 0 in
  count_accesses accesses @@ fun () ->
  List.iter
    (fun seg ->
      (match seg with
      | Stress.Sequential ops -> run_segment ops
      | Stress.Parallel ops ->
        Proto.begin_parallel p;
        run_segment ops;
        Proto.reconcile p);
      for w = 0 to nwords - 1 do
        ignore (Proto.peek p (base + w))
      done;
      ignore (Proto.check_invariants p))
    prog.segments;
  {
    stats = Machine.stats m;
    events = Engine.events_processed (Machine.engine m);
    cycles = Machine.max_clock m;
    accesses = !accesses;
  }
