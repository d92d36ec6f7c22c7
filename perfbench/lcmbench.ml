(* lcmbench — closed-loop host-time benchmark of the simulator.

     lcmbench.exe --workload paper-figures|bus-scaling|verify-chaos
                  --seed N --seconds S --trace 0|1 [--trace-out FILE]

   One client on one domain runs the workload's operations back to back
   (a closed loop: the next operation starts when the previous one ends).
   A pass is one run over all of the workload's operations; passes repeat
   until the time budget is spent.  Every operation's output is checked,
   and a failed check, an exception or a timeout counts as a failed
   operation.

   --trace 0 prints the end-to-end metrics (run_s, setup_s, peak_rss_mb).
   --trace 1 alternates untraced and traced passes, then runs the layer
   probes, and prints the per-layer metrics and the ledger.  See
   perfbench/README.md for what each metric should move, and where.

   The last line of stdout is one JSON object:
     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}} *)

open Lcm_harness
module Fleet = Lcm_fleet.Fleet
module Bench_result = Lcm_apps.Bench_result
module Engine = Lcm_sim.Engine

let now = Unix.gettimeofday
let process_start = now ()

(* ------------------------------------------------------------------ *)
(* Per-pass context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  spans : Spans.t option;  (* Some during a traced pass *)
  counts : (string, float) Hashtbl.t;  (* "<span>/<count>" -> total *)
  mutable ops : int;
  mutable failed : int;
  mutable digest : Int64.t;  (* FNV-1a over every operation's results *)
  mutable cycles : int;  (* simulated cycles, summed over operations *)
  mutable extra_s : float;  (* traced-only extra work, excluded from run_s *)
  deadline : float;
}

let traced ctx = ctx.spans <> None

let fnv_prime = 0x100000001b3L

let digest_add ctx s =
  let h = ref ctx.digest in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  ctx.digest <- Int64.mul (Int64.logxor !h 0x0aL) fnv_prime

let count ctx ~span name v =
  if traced ctx then begin
    let k = span ^ "/" ^ name in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt ctx.counts k) in
    Hashtbl.replace ctx.counts k (prev +. v)
  end

(* Every failed check of the run, including the trace's validation. *)
let failures = ref 0

let fail ctx ~op msg =
  ctx.failed <- ctx.failed + 1;
  incr failures;
  if !failures <= 10 then Printf.eprintf "lcmbench: FAILED %s: %s\n%!" op msg

let span ctx ~op name f = Spans.record ctx.spans ~op name f

(* Traced-only work (extra oracles, count replicas): run it outside the
   pass's timed share. *)
let extra ctx f =
  let t0 = now () in
  let r = f () in
  ctx.extra_s <- ctx.extra_s +. (now () -. t0);
  r

let new_op ctx = match ctx.spans with Some t -> Spans.new_op t | None -> 0

(* The counts one simulation leaves in its counters, read through [c]
   by counter name and attributed to [span].  Under a fault plan the
   messages count as [chaos_msgs], and application deliveries are every
   non-ack copy the reliable transport did not suppress as a duplicate. *)
let count_counters ctx ~span ~snoop ~chaos c =
  let faults = c "fault.read" +. c "fault.write" in
  if chaos then begin
    count ctx ~span "chaos_msgs" (c "net.msgs");
    count ctx ~span "acks" (c "msg.ack");
    count ctx ~span "retransmits" (c "fault.retransmits");
    count ctx ~span "drops" (c "fault.drops");
    count ctx ~span "deliveries"
      (c "net.msgs" -. c "msg.ack" -. c "fault.dup_suppressed")
  end
  else count ctx ~span "msgs" (c "net.msgs");
  count ctx ~span "words" (c "net.words");
  count ctx ~span "bus" (c "bus.transactions");
  count ctx ~span "c2c" (c "bus.c2c_transfers");
  count ctx ~span "faults" faults;
  count ctx ~span (if snoop then "snoop_misses" else "dir_misses") faults;
  count ctx ~span "handler_runs" (c "proto.handler_runs");
  count ctx ~span "fetch_remote" (c "proto.fetch_remote");
  count ctx ~span "reconciled" (c "lcm.reconciled_blocks");
  count ctx ~span "flush_blocks" (c "lcm.flush_blocks");
  count ctx ~span "invocations" (c "cstar.invocations")

let count_result ctx ~span ~snoop ~events (r : Bench_result.t) =
  if traced ctx then begin
    count ctx ~span "events" (float_of_int events);
    count ctx ~span "cycles" (float_of_int r.cycles);
    count_counters ctx ~span ~snoop ~chaos:false (fun name ->
        float_of_int (Option.value ~default:0 (List.assoc_opt name r.counters)))
  end

let digest_result ctx label (r : Bench_result.t) =
  ctx.cycles <- ctx.cycles + r.cycles;
  digest_add ctx
    (Printf.sprintf "%s|%d|%h|%s" label r.cycles r.checksum
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counters)))

let past_deadline ctx ~op =
  if now () > ctx.deadline then begin
    fail ctx ~op "timed out (run deadline passed before it started)";
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A workload's set-up runs the warm-up simulation and generates the
   inputs from the seed; it returns the pass function. *)
type workload = seed:int -> spans:Spans.t option -> ctx -> unit

let shuffle ~seed a =
  let rng = Lcm_util.Rng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Lcm_util.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let app_of_label label =
  let stop = ref (String.length label) in
  String.iteri
    (fun i c -> if (c = '-' || c = '/') && i < !stop then stop := i)
    label;
  String.sub label 0 !stop

(* paper-figures: the 18 quick-scale Figure 2/3 cells through the fleet
   pool with one job, in a seed-shuffled order (cells share nothing, so
   the order cannot change a result), then the cross-system agreement
   check and the nine §6.3 claims. *)
let paper_figures : workload =
 fun ~seed ~spans:_ ->
  let machine = Config.default_machine in
  (* warm-up: the quick-scale stencil-dyn cell under LCM-mcc *)
  (match
     List.assoc_opt "stencil-dyn/LCM-mcc"
       (Experiments.figure2_cells ~scale:Experiments.Quick machine)
   with
  | Some warm -> ignore (warm ())
  | None -> failwith "paper-figures: warm-up cell stencil-dyn/LCM-mcc not found");
  let cells =
    Array.of_list
      (Experiments.figure2_cells ~scale:Experiments.Quick machine
      @ Experiments.figure3_cells ~scale:Experiments.Quick machine)
  in
  let order = shuffle ~seed (Array.init (Array.length cells) Fun.id) in
  let budget = Fleet.Budget.make ~wall_s:90.0 () in
  fun ctx ->
    let accesses = ref 0 in
    let run_cell i =
      let label, thunk = cells.(i) in
      let app = app_of_label label in
      ( label,
        fun () ->
          let a0 = !accesses in
          let row = span ctx ~op:(new_op ctx) app thunk in
          count ctx ~span:app "accesses" (float_of_int (!accesses - a0));
          row )
    in
    let go () = Fleet.Pool.run ~jobs:1 ~budget (Array.map run_cell order) in
    let results =
      if traced ctx then Probes.count_accesses accesses go else go ()
    in
    let by_cell = Array.make (Array.length cells) None in
    Array.iteri
      (fun k (r : Experiments.row Fleet.cell_result) ->
        let i = order.(k) in
        ctx.ops <- ctx.ops + 1;
        match r.outcome with
        | Fleet.Done row ->
          let app = app_of_label r.label in
          count_result ctx ~span:app ~snoop:false ~events:r.events row.result;
          by_cell.(i) <- Some row
        | o -> fail ctx ~op:r.label (Fleet.outcome_string o))
      results;
    let rows = List.filter_map Fun.id (Array.to_list by_cell) in
    List.iter
      (fun (row : Experiments.row) ->
        digest_result ctx (row.experiment ^ "/" ^ row.system) row.result)
      rows;
    span ctx ~op:(new_op ctx) "claims" (fun () ->
        List.iter
          (fun (experiment, agree) ->
            if not agree then
              List.iter
                (fun (row : Experiments.row) ->
                  if row.experiment = experiment then
                    fail ctx ~op:(experiment ^ "/" ^ row.system)
                      "checksum disagrees with the other systems")
                rows)
          (Experiments.verify_agreement rows);
        let claims =
          if List.length rows = Array.length cells then
            try Experiments.claims rows with e ->
              fail ctx ~op:"claims" (Printexc.to_string e);
              []
          else []
        in
        let expected = 9 in
        ctx.ops <- ctx.ops + max expected (List.length claims);
        List.iter
          (fun (c : Experiments.claim) ->
            if not c.holds then
              fail ctx ~op:("claim " ^ c.id)
                (Printf.sprintf "measured %.3f, paper: %s" c.measured c.paper))
          claims;
        for _ = List.length claims + 1 to expected do
          fail ctx ~op:"claims" "claim not evaluated"
        done)

(* bus-scaling: MSI, MESI and MOESI at P=16 on the dir-vs-snoop stencil
   (band 24, 3 iterations) and on the seeded hot-set synthetic pattern. *)
let bus_systems = [ Config.msi; Config.mesi; Config.moesi ]

let bus_scaling : workload =
 fun ~seed ~spans:_ ->
  let machine = { Config.default_machine with Config.nnodes = 16 } in
  let schedule = Lcm_cstar.Schedule.Static in
  (* warm-up: one stencil iteration under MSI at P=16 *)
  (let rt = Config.make_runtime machine Config.msi ~schedule in
   ignore
     (Lcm_apps.Stencil.run rt
        { Lcm_apps.Stencil.n = 24 * 16; iters = 1; work_per_cell = 4 }));
  let stencil = { Lcm_apps.Stencil.n = 24 * 16; iters = 3; work_per_cell = 4 } in
  let reference = Lcm_apps.Stencil.reference stencil in
  let hot =
    {
      Lcm_apps.Synthetic.default with
      Lcm_apps.Synthetic.sharing = `Hot 8;
      phases = 8;
      invocations_per_node = 32;
      ops_per_invocation = 32;
      seed;
    }
  in
  let inputs =
    [
      ("stencil", (fun rt -> Lcm_apps.Stencil.run rt stencil), Some reference);
      ("synthetic", (fun rt -> Lcm_apps.Synthetic.run rt hot), None);
    ]
  in
  fun ctx ->
    let accesses = ref 0 in
    let one (app, run, reference) =
      let results =
        List.filter_map
          (fun (system : Config.system) ->
            let label = app ^ "/" ^ system.label in
            ctx.ops <- ctx.ops + 1;
            if past_deadline ctx ~op:label then None
            else
              let op = new_op ctx in
              let ev0 = Engine.domain_events () in
              let a0 = !accesses in
              match
                let rt =
                  span ctx ~op "make_runtime" (fun () ->
                      Config.make_runtime machine system ~schedule)
                in
                let r = span ctx ~op app (fun () -> run rt) in
                let inv =
                  span ctx ~op "verify" (fun () ->
                      Lcm_core.Proto.check_invariants (Lcm_cstar.Runtime.proto rt))
                in
                (r, inv)
              with
              | exception e ->
                fail ctx ~op:label (Printexc.to_string e);
                None
              | _, Error es ->
                fail ctx ~op:label ("invariants: " ^ String.concat "; " es);
                None
              | r, Ok () ->
                count_result ctx ~span:app ~snoop:true
                  ~events:(Engine.domain_events () - ev0) r;
                count ctx ~span:app "accesses" (float_of_int (!accesses - a0));
                digest_result ctx label r;
                Some (label, r))
          bus_systems
      in
      let close a b =
        abs_float (a -. b) /. Float.max 1.0 (Float.max (abs_float a) (abs_float b))
        <= 1e-4
      in
      match results with
      | [] -> ()
      | (_, first) :: _ ->
        List.iter
          (fun (label, (r : Bench_result.t)) ->
            if not (close r.checksum first.Bench_result.checksum) then
              fail ctx ~op:label
                (Printf.sprintf "checksum %h disagrees with %h" r.checksum
                   first.checksum)
            else
              match reference with
              | Some want when not (close r.checksum want) ->
                fail ctx ~op:label
                  (Printf.sprintf "checksum %h, Stencil.reference %h" r.checksum
                     want)
              | _ -> ())
          results
    in
    let go () = List.iter one inputs in
    if traced ctx then Probes.count_accesses accesses go else go ()

(* verify-chaos: a seeded differential stress batch over all seven
   policies under the 5% chaos fault plan, then model-checker exploration
   of every bounded scenario plus seeded random micro-configurations with
   fault budget 1. *)
let stress_cases_per_policy = 215

(* Replica counts per stress case index.  The seed and so the programs
   are fixed for the process, so they are taken once per run. *)
let replica = Hashtbl.create 2048

let micro_configs = 40

(* The schedule spaces of random micro-configurations are heavy-tailed:
   over 840 of them (seeds 1-20, fault budget 1) the median explores 1
   schedule, the 99th percentile about 3000, and some exceed the
   checker's default cap of 20000.  Exploring each to exhaustion would
   make a run's time, and whether it finishes at all, depend on the seed.
   So a micro-configuration is explored up to this many schedules: a
   violation within them fails the operation, and hitting the cap is
   counted in [check.capped].  The fixed scenarios must be exhausted. *)
let micro_schedule_cap = 200

let verify_chaos : workload =
 fun ~seed ~spans ->
  let policies = Array.of_list Stress.all_policies in
  let npol = Array.length policies in
  (* warm-up: one stress case and one model-checker exploration *)
  ignore (Stress.run_case (Stress.gen ~seed:(seed + 1) ~case:0 ()));
  (match Lcm_check.Check.scenarios ~policy:Lcm_core.Policy.lcm_mcc with
  | (label, prog) :: _ ->
    ignore (Lcm_check.Check.explore ~label ~fault_budget:1 prog)
  | [] -> ());
  let faults =
    match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed with
    | Ok f -> f
    | Error e -> failwith e
  in
  let progs =
    Spans.record spans ~op:0 "stress.gen" (fun () ->
        Array.init (stress_cases_per_policy * npol) (fun i ->
            Stress.gen ~seed ~case:i ~policy:policies.(i mod npol) ()))
  in
  (* (policy, label, program, schedule cap): a scenario must be explored
     exhaustively; a random micro-configuration is explored up to
     [micro_schedule_cap] schedules, see [micro_schedule_cap]. *)
  let configs =
    Array.of_list
      (List.concat_map
         (fun policy ->
           List.map
             (fun (name, prog) -> (policy, "scenario:" ^ name, prog, None))
             (Lcm_check.Check.scenarios ~policy))
         Stress.all_policies
      @ List.init micro_configs (fun i ->
            let policy = policies.(i mod npol) in
            ( policy,
              Printf.sprintf "micro:%d" i,
              Lcm_check.Check.gen_micro ~seed ~case:i ~policy,
              Some micro_schedule_cap )))
  in
  fun ctx ->
    Array.iteri
      (fun i prog ->
        let label = Printf.sprintf "stress case %d (%s)" i prog.Stress.policy.name in
        ctx.ops <- ctx.ops + 1;
        if not (past_deadline ctx ~op:label) then begin
          let op = new_op ctx in
          if traced ctx then
            extra ctx (fun () ->
                span ctx ~op "stress.golden" (fun () -> ignore (Stress.golden prog)));
          let ev0 = Engine.domain_events () in
          let verdict =
            span ctx ~op "stress.sim" (fun () ->
                try Stress.run_case ~faults prog
                with e -> Error ("exception: " ^ Printexc.to_string e))
          in
          let events = Engine.domain_events () - ev0 in
          (match verdict with Ok () -> () | Error e -> fail ctx ~op:label e);
          digest_add ctx
            (Printf.sprintf "%d|%s|%d" i
               (match verdict with Ok () -> "ok" | Error _ -> "error")
               events);
          if traced ctx then begin
            let r =
              match Hashtbl.find_opt replica i with
              | Some r -> r
              | None ->
                let r = extra ctx (fun () -> Probes.stress_counts ~faults prog) in
                if r.Probes.events <> events then
                  Printf.eprintf
                    "lcmbench: warning: count replica of %s ran %d events, \
                     Stress.run_case %d\n%!"
                    label r.Probes.events events;
                Hashtbl.replace replica i r;
                r
            in
            let span = "stress.sim" in
            count ctx ~span "events" (float_of_int events);
            count ctx ~span "cycles" (float_of_int r.Probes.cycles);
            count ctx ~span "accesses" (float_of_int r.Probes.accesses);
            count_counters ctx ~span ~snoop:(Lcm_core.Policy.is_snoop prog.policy)
              ~chaos:true (fun name ->
                float_of_int (Lcm_util.Stats.get r.Probes.stats name));
            ctx.cycles <- ctx.cycles + r.Probes.cycles
          end
        end)
      progs;
    Array.iter
      (fun (policy, name, prog, max_schedules) ->
        let label = Printf.sprintf "check %s %s" policy.Lcm_core.Policy.name name in
        ctx.ops <- ctx.ops + 1;
        if not (past_deadline ctx ~op:label) then begin
          let ev0 = Engine.domain_events () in
          match
            span ctx ~op:(new_op ctx) "check.explore" (fun () ->
                Lcm_check.Check.explore ~label:name ?max_schedules ~fault_budget:1
                  prog)
          with
          | exception e -> fail ctx ~op:label (Printexc.to_string e)
          | outcome, (st : Lcm_check.Check.stats) ->
            (match (outcome, max_schedules) with
            | Lcm_check.Check.Exhausted, _ -> ()
            | Capped, Some _ -> count ctx ~span:"check.explore" "capped" 1.0
            | Capped, None -> fail ctx ~op:label "schedule cap hit before exhaustion"
            | Found v, _ -> fail ctx ~op:label v.v_report);
            digest_add ctx
              (Printf.sprintf "%s|%s|%d|%d|%d|%d" label
                 (match outcome with
                 | Exhausted -> "exhausted"
                 | Capped -> "capped"
                 | Found _ -> "found")
                 st.schedules st.transitions st.branches
                 (st.sleep_prunes + st.pset_prunes));
            let span = "check.explore" in
            count ctx ~span "events" (float_of_int (Engine.domain_events () - ev0));
            count ctx ~span "schedules" (float_of_int st.schedules);
            count ctx ~span "transitions" (float_of_int st.transitions);
            count ctx ~span "branches" (float_of_int st.branches);
            count ctx ~span "prunes" (float_of_int (st.sleep_prunes + st.pset_prunes))
        end)
      configs

let workloads =
  [
    ("paper-figures", paper_figures);
    ("bus-scaling", bus_scaling);
    ("verify-chaos", verify_chaos);
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let median = Probes.median
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

type pass = {
  wall_s : float;
  p_ops : int;
  p_failed : int;
  p_digest : Int64.t;
  p_cycles : int;
  p_events : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let run_pass ~deadline ?spans counts pass_fn =
  let ctx =
    {
      spans;
      counts;
      ops = 0;
      failed = 0;
      digest = 0xcbf29ce484222325L;
      cycles = 0;
      extra_s = 0.0;
      deadline;
    }
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let ev0 = Engine.domain_events () in
  let t0 = now () in
  pass_fn ctx;
  let wall = now () -. t0 -. ctx.extra_s in
  let g1 = Gc.quick_stat () in
  {
    wall_s = wall;
    p_ops = ctx.ops;
    p_failed = ctx.failed;
    p_digest = ctx.digest;
    p_cycles = ctx.cycles;
    p_events = Engine.domain_events () - ev0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* The highest percentile with at least ten samples above it. *)
let tail_line xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n >= 11 then
    Printf.sprintf "p%.0f %.4f s (n = %d)"
      (100.0 *. float_of_int (n - 10) /. float_of_int n)
      a.(n - 11) n
  else
    Printf.sprintf "max %.4f s (n = %d; fewer than 11 samples, no percentile \
                    has ten beyond it)"
      a.(n - 1) n

let metric_json (name, value, unit) =
  let value = if Float.is_finite value then value else 0.0 in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

type run = {
  setup_s : float;  (* median set-up *)
  setups : int;
  plain : pass list;  (* untraced passes *)
  traced : pass list;
  counts : (string, float) Hashtbl.t;  (* from the traced passes *)
}

(* Every pass gets its own set-up (warm-up simulation, then the inputs
   generated from the seed), timed from a collected heap; the first also
   carries process start-up and one-time lazy initialisation.  Passes
   repeat until [seconds] is spent.  A traced run alternates untraced and
   traced passes, so both see the same host conditions.

   On a shared 2-vCPU VM, host speed was measured to alternate between
   two levels about 25% apart, in phases of 15-60 s.  So set-ups are
   spread over the whole run rather than bunched at its start, and
   [run_s] is the mean pass time: over 40 s windows of a measured
   pass-time series, the spread of the mean was a fifth lower than the
   spread of the median, which follows whichever phase holds the
   majority. *)
let measure (wl : workload) ~seed ~seconds ~spans =
  let setup_times = ref [] in
  let setup () =
    Gc.full_major ();
    let first = !setup_times = [] in
    let t0 = if first then process_start else now () in
    let f = wl ~seed ~spans:(if first then spans else None) in
    setup_times := (now () -. t0) :: !setup_times;
    f
  in
  let budget = float_of_int seconds in
  let t_start = now () in
  let deadline = t_start +. budget +. 100.0 in
  let counts = Hashtbl.create 64 in
  let plain = ref [] and traced = ref [] in
  let continue_ () =
    let typical = median (List.map (fun p -> p.wall_s) (!plain @ !traced)) in
    List.length !plain < 3
    || (spans <> None && List.length !traced < 3)
    || now () -. t_start +. typical <= budget
  in
  while continue_ () do
    plain := run_pass ~deadline (Hashtbl.create 1) (setup ()) :: !plain;
    if spans <> None then
      traced := run_pass ~deadline ?spans counts (setup ()) :: !traced
  done;
  { setup_s = median !setup_times; setups = List.length !setup_times;
    plain = !plain; traced = !traced; counts }

let sim_spans =
  [ "stencil"; "adaptive"; "threshold"; "unstructured"; "synthetic";
    "stress.sim"; "check.explore" ]

let harness_spans = [ "make_runtime"; "claims"; "verify" ]

(* Where a span's unexplained time goes, for the ledger's report. *)
let residual_owner = function
  | "stress.sim" ->
    "harness (Stress.run_case: program interpretation, golden model, checks)"
  | "check.explore" -> "check (schedule replay, DPOR bookkeeping, spec)"
  | _ -> "apps/cstar (the C** runtime and the app's own code)"

(* The traced run's per-layer metrics: counts per pass, span self times,
   the layer probes and the ledger built from them. *)
let per_layer r ~sp ~run_s ~failed_frac ~digest48 ~trace_out =
  let ntr = float_of_int (List.length r.traced) in
  let in_span s name =
    Option.value ~default:0.0 (Hashtbl.find_opt r.counts (s ^ "/" ^ name)) /. ntr
  in
  let total name =
    Hashtbl.fold
      (fun k v acc ->
        match String.index_opt k '/' with
        | Some i when String.sub k (i + 1) (String.length k - i - 1) = name -> acc +. v
        | _ -> acc)
      r.counts 0.0
    /. ntr
  in
  let selfs = Spans.self_by_name sp in
  let self name = Spans.self_of selfs name /. ntr in
  let pr = Probes.run () in
  let ns x = x *. 1e-9 in
  (* predicted seconds per pass of each probed layer, from one span's counts *)
  let predicted s =
    let c = in_span s in
    [
      ("engine", c "events" *. ns pr.engine_schedule_call);
      ("net", (c "msgs" *. ns pr.net_send) +. (c "deliveries" *. ns pr.net_chaos));
      ("bus", c "bus" *. ns pr.bus_transact);
      ("tempest", c "accesses" *. ns pr.tempest_hit);
      ( "core",
        (c "dir_misses" *. ns pr.dir_miss)
        +. (c "snoop_misses" *. ns pr.snoop_miss)
        +. (c "reconciled" *. ns pr.reconcile_block) );
    ]
  in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 in
  let layers =
    List.map
      (fun name ->
        ( name,
          List.fold_left (fun a s -> a +. List.assoc name (predicted s)) 0.0 sim_spans ))
      [ "engine"; "net"; "bus"; "tempest"; "core" ]
    @ [ ("harness", List.fold_left (fun a s -> a +. self s) 0.0 harness_spans) ]
  in
  let explained = sum layers in
  let residual = run_s -. explained in
  Printf.printf "ledger (s per pass; untraced run_s %.4f):\n" run_s;
  List.iter
    (fun (n, v) -> Printf.printf "  %-8s %.4f  (%.1f%%)\n" n v (100.0 *. v /. run_s))
    (layers @ [ ("residual", residual) ]);
  Printf.printf "  engine with the closure event form instead: %.4f\n"
    (total "events" *. ns pr.engine_schedule);
  let residuals =
    List.filter_map
      (fun s -> if self s > 0.0 then Some (s, self s -. sum (predicted s)) else None)
      sim_spans
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  List.iter
    (fun (s, u) -> Printf.printf "  span %-14s self %.4f, unexplained %.4f\n" s (self s) u)
    residuals;
  (match residuals with
  | (s, u) :: _ ->
    Printf.printf "  largest residual: span %s, %.4f s per pass, in %s\n" s u
      (residual_owner s)
  | [] -> ());
  if trace_out <> "" then begin
    let oc = open_out trace_out in
    output_string oc (Spans.to_chrome sp);
    close_out oc;
    match Traceview.validate_file trace_out with
    | Ok n -> Printf.printf "trace: %d spans in %s (valid Chrome trace)\n" n trace_out
    | Error e ->
      Printf.eprintf "lcmbench: FAILED: trace %s does not validate: %s\n" trace_out e;
      incr failures
  end;
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let gc f = median (List.map f r.plain) in
  let events = float_of_int (List.hd r.plain).p_events in
  let traced_s = mean (List.map (fun p -> p.wall_s) r.traced) in
  [
    ("sim.events", events, "count");
    ("sim.ns_per_event", ratio (run_s *. 1e9) events, "ns");
    ("sim.cycles", float_of_int (List.hd r.traced).p_cycles, "cycles");
    ("sim.digest", digest48, "hash");
    ("probe.engine.schedule_ns", pr.engine_schedule, "ns");
    ("probe.engine.schedule_call_ns", pr.engine_schedule_call, "ns");
    ("probe.heap.add_pop_ns.q32", pr.heap_q32, "ns");
    ("probe.heap.add_pop_ns.q1024", pr.heap_q1024, "ns");
    ("probe.stats.incr_ns", pr.stats_incr, "ns");
    ("probe.net.send_ns", pr.net_send, "ns");
    ("probe.net.send_reliable_chaos_ns", pr.net_chaos, "ns");
    ("probe.bus.transact_ns", pr.bus_transact, "ns");
    ("probe.tempest.hit_ns", pr.tempest_hit, "ns");
    ("probe.core.dir_miss_ns", pr.dir_miss, "ns");
    ("probe.core.snoop_miss_ns", pr.snoop_miss, "ns");
    ("probe.core.reconcile_ns_per_block", pr.reconcile_block, "ns");
    ("net.msgs", total "msgs" +. total "chaos_msgs", "count");
    ("net.words", total "words", "words");
    ("net.retransmits", total "retransmits", "count");
    ("net.acks", total "acks", "count");
    ("net.drops", total "drops", "count");
    ( "net.goodput_frac",
      ratio (total "deliveries") (total "chaos_msgs" +. total "drops"),
      "ratio" );
    ("bus.transactions", total "bus", "count");
    ("bus.c2c_frac", ratio (total "c2c") (total "bus"), "ratio");
    ("tempest.accesses", total "accesses", "count");
    ("tempest.faults", total "faults", "count");
    ("tempest.handler_runs", total "handler_runs", "count");
    ("core.fetch_remote", total "fetch_remote", "count");
    ("core.reconciled_blocks", total "reconciled", "count");
    ("core.flush_blocks", total "flush_blocks", "count");
    ("cstar.invocations", total "invocations", "count");
    ("span.stencil_s", self "stencil", "s");
    ("span.adaptive_s", self "adaptive", "s");
    ("span.threshold_s", self "threshold", "s");
    ("span.unstructured_s", self "unstructured", "s");
    ("span.synthetic_s", self "synthetic", "s");
    ("span.make_runtime_s", self "make_runtime", "s");
    ("span.verify_s", self "verify", "s");
    ("span.claims_s", self "claims", "s");
    (* generated once, in the first set-up: not per pass *)
    ("span.stress.gen_s", Spans.self_of selfs "stress.gen", "s");
    ("span.stress.golden_s", self "stress.golden", "s");
    ("span.stress.sim_s", self "stress.sim", "s");
    ("check.schedules", total "schedules", "count");
    ("check.transitions", total "transitions", "count");
    ("check.capped", total "capped", "count");
    ("check.prune_frac", ratio (total "prunes") (total "branches" +. total "prunes"), "ratio");
    ("span.check.explore_s", self "check.explore", "s");
    ("gc.minor_words_per_event", ratio (gc (fun p -> p.minor_words)) events, "words");
    ("gc.promoted_words", gc (fun p -> p.promoted_words), "words");
    ("gc.major_collections", gc (fun p -> float_of_int p.major_collections), "count");
  ]
  @ List.map (fun (n, v) -> ("ledger." ^ n ^ "_s", v, "s")) layers
  @ [
      ("ledger.residual_s", residual, "s");
      ("ledger.explained_frac", ratio explained run_s, "ratio");
      ("trace.overhead_frac", ratio traced_s run_s -. 1.0, "ratio");
      ("trace.spans", float_of_int (Spans.count sp), "count");
      ("failed_frac", failed_frac, "ratio");
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-figures | bus-scaling | verify-chaos");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the traced run's spans as Chrome trace JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lcmbench --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "lcmbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "lcmbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let spans = if !trace = 1 then Some (Spans.create ()) else None in
  let r = measure wl ~seed:!seed ~seconds:!seconds ~spans in
  let passes = r.plain @ r.traced in
  let attempted = List.fold_left (fun a p -> a + p.p_ops) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.p_failed) 0 passes in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  let last = List.hd r.plain in
  let deterministic = List.for_all (fun p -> p.p_digest = last.p_digest) passes in
  if not deterministic then prerr_endline "lcmbench: FAILED: passes disagree on sim.digest";
  let digest48 = Int64.logand last.p_digest 0xffffffffffffL in
  let walls = List.map (fun p -> p.wall_s) r.plain in
  let run_s = mean walls in
  Printf.printf "workload %s  seed %d  passes %d untraced + %d traced\n" !workload !seed
    (List.length r.plain) (List.length r.traced);
  Printf.printf "run_s      mean %.4f s; median %.4f s, %s\n" run_s (median walls)
    (tail_line walls);
  Printf.printf "setup_s    median %.4f s of %d set-ups\n" r.setup_s r.setups;
  Printf.printf "ops        %d attempted, %d failed (failed_frac %.4f; %d per pass)\n"
    attempted failed failed_frac last.p_ops;
  Printf.printf "sim.digest %012Lx  sim.cycles %d  sim.events %d per pass\n" digest48
    (List.hd (r.traced @ r.plain)).p_cycles last.p_events;
  let metrics =
    match spans with
    | None ->
      [ ("run_s", run_s, "s"); ("setup_s", r.setup_s, "s"); ("peak_rss_mb", peak_rss_mb (), "MB") ]
    | Some sp ->
      per_layer r ~sp ~run_s ~failed_frac ~digest48:(Int64.to_float digest48)
        ~trace_out:!trace_out
  in
  let correct = !failures = 0 && deterministic in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))
