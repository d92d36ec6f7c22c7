(* perf — host-side throughput rig for the simulator itself.

   Every experiment in the harness is bounded by how fast the host can run
   the simulation stack, so this rig tracks that as a first-class number:
   for each (workload, policy) cell it reports host wall-clock seconds,
   simulated engine events per second, simulated cycles and peak RSS, and
   writes the lot to a machine-readable JSON file (BENCH_perf.json by
   default) so successive PRs accumulate a throughput trajectory.

     dune exec bench/perf.exe                    # full rig -> BENCH_perf.json
     dune exec bench/perf.exe -- --smoke         # seconds-long sanity pass
     dune exec bench/perf.exe -- --jobs 0        # cells across all host cores
     dune exec bench/perf.exe -- --baseline old.json --out BENCH_perf.json

   With --baseline, the previous file's runs are embedded under "before",
   the fresh runs under "after", and per-cell wall-clock speedups are
   computed (matched by workload + policy).  See README "Performance
   benchmarking" for the schema.

   Cells run through Lcm_fleet.Fleet.Pool; --jobs N (0 = auto) spreads
   them over worker domains.  Simulated counters (events, sim_cycles) are
   deterministic and job-count-independent; wall_s is host throughput and
   with jobs > 1 measures *contended* throughput — compare like against
   like when tracking a trajectory. *)

open Lcm_harness
module Fleet = Lcm_fleet.Fleet

type run = {
  workload : string;
  policy : string;
  wall_s : float;
  sim_cycles : int;
  events : int;
  events_per_sec : float;
  peak_rss_kb : int;
  (* Host GC profile of one repeat (allocation is deterministic across
     repeats — the simulator allocates the same records every time). *)
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_collections : int;
  gc_words_per_event : float;
}

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* VmHWM from /proc/self/status: the process peak-RSS high-water mark in
   kB.  Monotone over the process lifetime, so per-run values record "peak
   so far" — still enough to catch a workload that blows memory up.  0
   where /proc is unavailable. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let repeat = ref 3

let measure ~workload ~policy f =
  (* Best-of-N: host wall-clock is throughput of the simulator binary, and
     the minimum over a few repeats is the standard noise-robust estimate
     (scheduling hiccups and frequency ramps only ever slow a run down).
     Events and sim_cycles are identical across repeats — the simulator is
     deterministic — so only the timing varies.  Events come from the
     *calling domain's* tally so concurrent cells on other domains don't
     bleed into this cell's count. *)
  let best = ref None in
  let gc = ref (0.0, 0.0, 0) in
  for i = 1 to max 1 !repeat do
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let ev0 = Lcm_sim.Engine.domain_events () in
    let t0 = Unix.gettimeofday () in
    let sim_cycles = f () in
    let t1 = Unix.gettimeofday () in
    let g1 = Gc.quick_stat () in
    let events = Lcm_sim.Engine.domain_events () - ev0 in
    let wall_s = t1 -. t0 in
    (* GC deltas are repeat-invariant: record the first repeat's. *)
    if i = 1 then
      gc :=
        ( g1.Gc.minor_words -. g0.Gc.minor_words,
          g1.Gc.promoted_words -. g0.Gc.promoted_words,
          g1.Gc.major_collections - g0.Gc.major_collections );
    match !best with
    | Some (w, _, _) when w <= wall_s -> ()
    | _ -> best := Some (wall_s, sim_cycles, events)
  done;
  let wall_s, sim_cycles, events =
    match !best with Some b -> b | None -> assert false
  in
  let events_per_sec =
    if wall_s > 0.0 then float_of_int events /. wall_s else 0.0
  in
  let gc_minor_words, gc_promoted_words, gc_major_collections = !gc in
  {
    workload;
    policy;
    wall_s;
    sim_cycles;
    events;
    events_per_sec;
    peak_rss_kb = peak_rss_kb ();
    gc_minor_words;
    gc_promoted_words;
    gc_major_collections;
    gc_words_per_event =
      (if events > 0 then gc_minor_words /. float_of_int events else 0.0);
  }

let print_run r =
  Printf.printf "%-28s %-16s %8.3f s %10d ev %12.0f ev/s %9d cyc %8d kB\n%!"
    r.workload r.policy r.wall_s r.events r.events_per_sec r.sim_cycles
    r.peak_rss_kb

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let systems =
  [ Config.stache; Config.lcm_scc; Config.lcm_mcc; Config.lcm_mcc_update ]

let runtime ~nnodes system =
  Config.make_runtime
    { Config.default_machine with Config.nnodes }
    system ~schedule:Lcm_cstar.Schedule.Static

let stencil ~nnodes ~n ~iters system () =
  let rt = runtime ~nnodes system in
  let r =
    Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n; iters; work_per_cell = 4 }
  in
  r.Lcm_apps.Bench_result.cycles

let unstructured ~nnodes ~nodes ~edges ~iters system () =
  let rt = runtime ~nnodes system in
  let r =
    Lcm_apps.Unstructured.run rt
      { Lcm_apps.Unstructured.nodes; edges; iters; seed = 11; work_per_node = 6 }
  in
  r.Lcm_apps.Bench_result.cycles

let synthetic ~nnodes params system () =
  let rt = runtime ~nnodes system in
  let r = Lcm_apps.Synthetic.run rt params in
  r.Lcm_apps.Bench_result.cycles

let stress ~cases ~seed system () =
  (match Stress.run ~policy:system.Config.policy ~cases ~seed () with
  | Ok () -> ()
  | Error e -> failwith ("perf: stress batch failed:\n" ^ e));
  0

(* One fleet cell per (workload, policy): the thunk performs the whole
   best-of-N measurement on whichever worker domain claims it. *)
let all_cells ~smoke =
  let sn, si, snodes = if smoke then (16, 2, 8) else (128, 25, 32) in
  let un, ue, ui = if smoke then (32, 96, 2) else (256, 1024, 48) in
  let cases = if smoke then 2 else 60 in
  let cell mk name =
    List.map
      (fun sys ->
        ( Printf.sprintf "%s/%s" name sys.Config.label,
          fun () -> measure ~workload:name ~policy:sys.Config.label (mk sys) ))
      systems
  in
  let stencil_cells =
    cell
      (stencil ~nnodes:snodes ~n:sn ~iters:si)
      (Printf.sprintf "stencil-static-%dx%d-i%d-p%d" sn sn si snodes)
  in
  let unstructured_cells =
    cell
      (unstructured ~nnodes:snodes ~nodes:un ~edges:ue ~iters:ui)
      (Printf.sprintf "unstructured-%dn%de-i%d-p%d" un ue ui snodes)
  in
  let stress_cells =
    cell (stress ~cases ~seed:1) (Printf.sprintf "stress-%dcases-seed1" cases)
  in
  let syn_nodes = if smoke then 4 else 16 in
  let synthetic_cells =
    cell
      (synthetic ~nnodes:syn_nodes Lcm_apps.Synthetic.default)
      (Printf.sprintf "synthetic-p%d" syn_nodes)
  in
  Array.of_list
    (stencil_cells @ unstructured_cells @ synthetic_cells @ stress_cells)

let all_runs ~smoke ~jobs () =
  let cells = all_cells ~smoke in
  let progress =
    if Unix.isatty Unix.stderr && Fleet.resolve_jobs jobs > 1 then
      Some (Fleet.Progress.create ~total:(Array.length cells) ())
    else None
  in
  let results = Fleet.Pool.run ~jobs ?progress cells in
  Option.iter Fleet.Progress.finish progress;
  (* The rig is a health check of the simulator itself: a crashed or hung
     cell is a perf bug, not a data point — fail hard. *)
  Array.iter
    (fun (r : run Fleet.cell_result) ->
      match r.Fleet.outcome with
      | Fleet.Done _ -> ()
      | o ->
        Printf.eprintf "perf: FATAL: cell %s: %s\n" r.Fleet.label
          (Fleet.outcome_string o);
        exit 1)
    results;
  let runs =
    Array.to_list results
    |> List.filter_map (fun (r : run Fleet.cell_result) ->
           match r.Fleet.outcome with Fleet.Done run -> Some run | _ -> None)
  in
  List.iter print_run runs;
  runs

(* ------------------------------------------------------------------ *)
(* Allocation rig                                                      *)
(* ------------------------------------------------------------------ *)

(* The pinned allocation workloads and their minor-words-per-event
   ceilings.  These are regression fences, not aspirations: the measured
   steady state is well below each ceiling (see BENCH_perf.json), and a
   future change that re-introduces per-event closure or record churn
   trips them long before it costs wall-clock.  Sizes are pinned because
   words/event is amortized over fixed startup allocation — changing the
   workload silently moves the number. *)
let alloc_ceilings =
  [ ("stencil-64x64-i10-p32", 87.5); ("synthetic-p16", 41.5) ]

let alloc_runs () =
  let saved = !repeat in
  (* allocation is deterministic across repeats; one is enough *)
  repeat := 1;
  (* The first simulation in a process pays one-time lazy initialization
     (registries, hashtable growth, domain-local state) that must not be
     charged to either pinned cell: burn it on a throwaway run.  The two
     measurements are explicitly sequenced — a list literal would
     evaluate right-to-left and silently reorder the cells. *)
  ignore (stencil ~nnodes:4 ~n:8 ~iters:1 Config.lcm_mcc ());
  let s =
    measure ~workload:"stencil-64x64-i10-p32" ~policy:Config.lcm_mcc.Config.label
      (stencil ~nnodes:32 ~n:64 ~iters:10 Config.lcm_mcc)
  in
  let y =
    measure ~workload:"synthetic-p16" ~policy:Config.lcm_mcc.Config.label
      (synthetic ~nnodes:16 Lcm_apps.Synthetic.default Config.lcm_mcc)
  in
  repeat := saved;
  [ s; y ]

let print_alloc_table ~before rs =
  Printf.printf "%-28s %-12s %9s %13s %10s %7s %8s\n" "workload" "policy"
    "events" "minor-words" "promoted" "majors" "w/ev";
  List.iter
    (fun r ->
      Printf.printf "%-28s %-12s %9d %13.0f %10.0f %7d %8.1f\n" r.workload
        r.policy r.events r.gc_minor_words r.gc_promoted_words
        r.gc_major_collections r.gc_words_per_event;
      match
        List.find_opt
          (fun b -> b.workload = r.workload && b.policy = r.policy)
          before
      with
      | Some b when b.gc_words_per_event > 0.0 && r.gc_words_per_event > 0.0 ->
        Printf.printf "%-28s %-12s %9s %13.0f %10.0f %7d %8.1f  (%.2fx)\n" ""
          "(before)" "" b.gc_minor_words b.gc_promoted_words
          b.gc_major_collections b.gc_words_per_event
          (b.gc_words_per_event /. r.gc_words_per_event)
      | _ -> ())
    rs

let check_ceilings rs =
  List.for_all
    (fun (wl, ceiling) ->
      match List.find_opt (fun r -> r.workload = wl) rs with
      | None ->
        Printf.eprintf "perf: FATAL: alloc cell %s missing\n" wl;
        false
      | Some r when r.gc_words_per_event > ceiling ->
        Printf.eprintf
          "perf: FATAL: %s allocates %.1f minor words per event (ceiling \
           %.1f) — a change re-introduced per-event allocation churn; see \
           DESIGN.md §\"Host allocation discipline\"\n"
          wl r.gc_words_per_event ceiling;
        false
      | Some r ->
        Printf.printf "alloc ceiling ok: %-28s %6.1f w/ev <= %.1f\n" wl
          r.gc_words_per_event ceiling;
        true)
    alloc_ceilings

(* ------------------------------------------------------------------ *)
(* JSON out / baseline in                                              *)
(* ------------------------------------------------------------------ *)

(* Serialized through the shared Report.Json path (same escaping as the
   sweep summaries); key names are load_baseline's contract. *)
let run_json r =
  Report.Json.Obj
    [
      ("workload", Report.Json.Str r.workload);
      ("policy", Report.Json.Str r.policy);
      ("wall_s", Report.Json.Float r.wall_s);
      ("sim_cycles", Report.Json.Int r.sim_cycles);
      ("events", Report.Json.Int r.events);
      ("events_per_sec", Report.Json.Float r.events_per_sec);
      ("peak_rss_kb", Report.Json.Int r.peak_rss_kb);
      ("host.gc_minor_words", Report.Json.Float r.gc_minor_words);
      ("host.gc_promoted_words", Report.Json.Float r.gc_promoted_words);
      ("host.gc_major_collections", Report.Json.Int r.gc_major_collections);
      ("host.gc_words_per_event", Report.Json.Float r.gc_words_per_event);
    ]

let runs_json rs = Report.Json.Arr (List.map run_json rs)

let load_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Traceview.parse text with
  | Error e -> failwith (Printf.sprintf "perf: cannot parse %s: %s" path e)
  | Ok doc ->
    (* prefer the file's "after" runs (a previous before/after file), else
       its plain "runs" *)
    let runs =
      match (Traceview.member "after" doc, Traceview.member "runs" doc) with
      | Some (Traceview.Arr rs), _ | None, Some (Traceview.Arr rs) -> rs
      | _ -> failwith (Printf.sprintf "perf: no runs array in %s" path)
    in
    List.filter_map
      (fun r ->
        let str k =
          match Traceview.member k r with
          | Some (Traceview.Str s) -> Some s
          | _ -> None
        in
        let num k =
          match Traceview.member k r with
          | Some (Traceview.Num n) -> Some n
          | _ -> None
        in
        match (str "workload", str "policy", num "wall_s") with
        | Some workload, Some policy, Some wall ->
          Some
            {
              workload;
              policy;
              wall_s = wall;
              sim_cycles =
                (match num "sim_cycles" with Some n -> int_of_float n | None -> 0);
              events =
                (match num "events" with Some n -> int_of_float n | None -> 0);
              events_per_sec =
                (match num "events_per_sec" with Some n -> n | None -> 0.0);
              peak_rss_kb =
                (match num "peak_rss_kb" with Some n -> int_of_float n | None -> 0);
              (* absent in pre-allocation-rig files: defaults read as "no
                 GC data", which the printers and comparisons skip *)
              gc_minor_words =
                (match num "host.gc_minor_words" with Some n -> n | None -> 0.0);
              gc_promoted_words =
                (match num "host.gc_promoted_words" with
                | Some n -> n
                | None -> 0.0);
              gc_major_collections =
                (match num "host.gc_major_collections" with
                | Some n -> int_of_float n
                | None -> 0);
              gc_words_per_event =
                (match num "host.gc_words_per_event" with
                | Some n -> n
                | None -> 0.0);
            }
        | _ -> None)
      runs

let comparison_json before after =
  Report.Json.Arr
    (List.filter_map
       (fun a ->
         match
           List.find_opt
             (fun b -> b.workload = a.workload && b.policy = a.policy)
             before
         with
         | Some b when a.wall_s > 0.0 ->
           Some
             (Report.Json.Obj
                ([
                   ("workload", Report.Json.Str a.workload);
                   ("policy", Report.Json.Str a.policy);
                   ("wall_before_s", Report.Json.Float b.wall_s);
                   ("wall_after_s", Report.Json.Float a.wall_s);
                   ("speedup", Report.Json.Float (b.wall_s /. a.wall_s));
                 ]
                @
                if b.gc_words_per_event > 0.0 && a.gc_words_per_event > 0.0
                then
                  [
                    ( "words_per_event_before",
                      Report.Json.Float b.gc_words_per_event );
                    ( "words_per_event_after",
                      Report.Json.Float a.gc_words_per_event );
                    ( "alloc_reduction",
                      Report.Json.Float
                        (b.gc_words_per_event /. a.gc_words_per_event) );
                  ]
                else []))
         | _ -> None)
       after)

let () =
  let smoke = ref false in
  let alloc = ref false in
  let check = ref false in
  let out = ref "BENCH_perf.json" in
  let baseline = ref "" in
  let jobs = ref 1 in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " tiny problem sizes (CI smoke test)");
      ( "--alloc",
        Arg.Set alloc,
        " allocation rig: GC profile of the pinned workloads only" );
      ( "--check",
        Arg.Set check,
        " with --alloc: fail if a pinned words-per-event ceiling is exceeded" );
      ( "--repeat",
        Arg.Set_int repeat,
        "N repeats per cell, best (minimum) wall time kept (default 3)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N worker domains for the cell sweep (default 1; 0 = auto)" );
      ("--out", Arg.Set_string out, "FILE output JSON path (default BENCH_perf.json)");
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE previous BENCH_perf.json to compare against" );
    ]
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    "perf [--smoke] [--alloc [--check]] [--jobs N] [--out FILE] [--baseline \
     FILE]";
  if !jobs < 0 then begin
    prerr_endline "perf: --jobs must be >= 0";
    exit 2
  end;
  if !smoke then repeat := 1;
  (* Validate the baseline before spending minutes measuring. *)
  let load_baseline_or_die path =
    match load_baseline path with
    | runs -> runs
    | exception (Sys_error msg | Failure msg) ->
      Printf.eprintf "perf: cannot load baseline: %s\n" msg;
      exit 1
  in
  let before = if !baseline = "" then [] else load_baseline_or_die !baseline in
  let write_doc extra after =
    let doc =
      Report.Json.Obj
        ([
           ("schema", Report.Json.Str "lcm-bench-perf/1");
           ("scale", Report.Json.Str (if !smoke then "smoke" else "full"));
         ]
        @ extra
        @
        match before with
        | [] -> [ ("runs", runs_json after) ]
        | before ->
          [
            ("before", runs_json before);
            ("after", runs_json after);
            ("comparison", comparison_json before after);
          ])
    in
    let oc = open_out !out in
    output_string oc (Report.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "(wrote %s)\n" !out;
    (* self-check: the file we just wrote must parse and round-trip
       through the baseline reader *)
    let reread = load_baseline !out in
    if List.length reread <> List.length after then begin
      prerr_endline "perf: FATAL: written JSON did not round-trip";
      exit 1
    end
  in
  if !alloc then begin
    let after = alloc_runs () in
    print_alloc_table ~before after;
    write_doc [ ("mode", Report.Json.Str "alloc") ] after;
    if !check && not (check_ceilings after) then exit 1
  end
  else begin
    Printf.printf "%-28s %-16s %10s %13s %15s %12s %11s\n" "workload" "policy"
      "wall" "events" "events/sec" "sim-cycles" "peak-rss";
    let after = all_runs ~smoke:!smoke ~jobs:!jobs () in
    write_doc
      [
        ("jobs", Report.Json.Int (Fleet.resolve_jobs !jobs));
        ("host_domains", Report.Json.Int (Domain.recommended_domain_count ()));
      ]
      after
  end
