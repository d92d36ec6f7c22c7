(* Full benchmark harness: regenerates every table and figure in the paper's
   evaluation (Section 6.3) from simulation, prints the Section 6.3 claim
   checklist and the Section 7 / design ablations.  Host-time measurement
   lives in perfbench/, not here.

     dune exec bench/main.exe            # quick scale (about a minute)
     dune exec bench/main.exe -- --paper # the paper's full problem sizes
     dune exec bench/main.exe -- --jobs 0 # sweep cells across all host cores *)

open Lcm_harness

(* Command line, parsed once before any section runs.  A bad value exits 2
   with a message naming the flag and the value.
   --jobs N (0 = auto): spread each section's independent cells over
   worker domains.  Results are bit-identical to the sequential run —
   cells are keyed by index — so only wall-clock changes.
   --fault-rate R [--fault-profile NAME] [--fault-seed S]: run the whole
   evaluation over a deterministically unreliable interconnect.  The
   differential-validation and claims sections then double as an
   end-to-end check that retransmission preserves every result. *)
let scale, jobs, faults =
  let paper = ref false and jobs = ref 1 in
  let rate = ref 0.0 and profile = ref "drop" and seed = ref 7 in
  let bad fmt = Printf.ksprintf (fun m -> raise (Arg.Bad m)) fmt in
  let usage =
    "main [--paper] [--jobs N] [--fault-rate R [--fault-profile NAME] \
     [--fault-seed S]]"
  in
  Arg.parse
    [
      ("--paper", Arg.Set paper, " the paper's full problem sizes");
      ( "--jobs",
        Arg.Int
          (fun n ->
            if n < 0 then bad "--jobs %d: must be >= 0 (0 = auto)" n;
            jobs := n),
        "N worker domains for each section's cells (default 1; 0 = auto)" );
      ( "--fault-rate",
        Arg.Float
          (fun r ->
            if not (r >= 0.0 && r <= 1.0) then
              bad "--fault-rate %g: must be in [0,1]" r;
            rate := r),
        "R per-message fault rate (default 0: reliable interconnect)" );
      ( "--fault-profile",
        Arg.Set_string profile,
        "NAME fault profile (default drop; see Lcm_net.Faults.profiles)" );
      ("--fault-seed", Arg.Set_int seed, "S fault RNG seed (default 7)");
    ]
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    usage;
  let faults =
    match Lcm_net.Faults.of_profile !profile ~rate:!rate ~seed:!seed with
    | Error e ->
      Printf.eprintf "%s: --fault-profile %s: %s\n" Sys.argv.(0) !profile e;
      exit 2
    | Ok _ when !rate = 0.0 -> None
    | Ok plan -> Some plan
  in
  ( (if !paper then Experiments.Paper else Experiments.Quick),
    !jobs,
    faults )

(* Every section is a fleet sweep; crashes/invariant violations in a cell
   must still abort the harness, hence rows_exn. *)
let sweep cells = Sweep.rows_exn (Sweep.run ~jobs cells)

let machine = { Config.default_machine with Config.faults }

let section title = Printf.printf "\n############ %s ############\n%!" title

let () =
  Printf.printf
    "LCM reproduction harness — %d nodes, %d-word blocks, topology %s, scale %s\n"
    machine.Config.nnodes machine.Config.words_per_block
    (Lcm_net.Topology.to_string machine.Config.topology)
    (match scale with
    | Experiments.Paper -> "paper"
    | Experiments.Quick -> "quick"
    | Experiments.Tiny -> "tiny");
  (match faults with
  | Some plan ->
    Printf.printf "fault plan: %s\n" (Lcm_net.Faults.to_string plan)
  | None -> ());

  section "Figure 2: Stencil execution time";
  let fig2 = sweep (Experiments.figure2_cells ~scale machine) in
  print_string (Report.execution_times ~title:"Figure 2" fig2);

  section "Figure 3: Adaptive / Threshold / Unstructured execution time";
  let fig3 = sweep (Experiments.figure3_cells ~scale machine) in
  print_string (Report.execution_times ~title:"Figure 3" fig3);

  let rows = fig2 @ fig3 in
  section "Table 1: cache misses and clean copies";
  print_string (Report.table1 rows);

  section "Clean-copy memory usage (Section 5.1)";
  print_string (Report.memory_usage rows);

  section "Phase-cycle distributions";
  print_string
    (Report.samples
       (List.filter
          (fun (r : Experiments.row) -> r.Experiments.experiment = "stencil-stat")
          rows));

  section "Message breakdown (what the protocols actually send)";
  print_string
    (Report.message_breakdown
       (List.filter
          (fun (r : Experiments.row) ->
            r.Experiments.experiment = "stencil-stat"
            || r.Experiments.experiment = "threshold")
          rows));

  section "Differential validation";
  print_string (Report.agreement rows);

  section "Section 6.3 claims";
  print_string (Report.claims (Experiments.claims rows));

  section "Ablation: reductions (Section 7.1)";
  print_string
    (Report.generic ~title:"global sum, 3 implementations"
       (sweep (Experiments.ablation_reduction_cells machine)));

  section "Ablation: false sharing (Section 7.4)";
  print_string
    (Report.generic ~title:"falsely-shared blocks"
       (sweep (Experiments.ablation_false_sharing_cells machine)));

  section "Ablation: stale data (Section 7.5)";
  print_string
    (Report.generic ~title:"N-body with stale remote bodies"
       (sweep (Experiments.ablation_stale_cells machine)));

  section "Ablation: clean-copy placement vs block reuse (scc vs mcc)";
  print_string
    (Report.generic ~title:"stencil across words-per-block"
       (sweep (Experiments.ablation_block_reuse_cells machine)));

  section "Ablation: scheduling sensitivity";
  print_string
    (Report.generic ~title:"stencil across schedules"
       (sweep (Experiments.ablation_schedule_cells machine)));

  section "Ablation: interconnect topology";
  print_string
    (Report.generic ~title:"dynamic stencil across interconnects"
       (sweep (Experiments.ablation_topology_cells machine)));

  section "Ablation: weak scaling";
  print_string
    (Report.generic ~title:"stencil, fixed per-node band, growing machine"
       (sweep (Experiments.ablation_scaling_cells machine)));

  section "Ablation: cost-model sensitivity";
  print_string
    (Report.generic ~title:"stencil with communication costs scaled"
       (sweep (Experiments.ablation_cost_sensitivity_cells machine)));

  section "Ablation: run-time violation detection cost (Sections 7.2-7.3)";
  print_string
    (Report.generic ~title:"stencil under LCM-mcc with detection modes"
       (sweep (Experiments.ablation_detection_cells machine)));

  section "Ablation: invalidate- vs update-based reconciliation (Section 3)";
  print_string
    (Report.generic ~title:"stencil under LCM-mcc vs LCM-mcc-update"
       (sweep (Experiments.ablation_update_cells machine)));

  section "Ablation: reconciliation barrier organisation (Section 5.1)";
  print_string
    (Report.generic ~title:"flat coordinator vs combining tree"
       (sweep (Experiments.ablation_barrier_cells machine)));

  section "Ablation: cache capacity (Stache, static stencil)";
  print_string
    (Report.generic ~title:"stencil-stat under finite caches"
       (sweep (Experiments.ablation_capacity_cells machine)));

  section "Tracing sample (structured observability)";
  (let rt =
     Config.make_runtime
       { machine with Config.nnodes = 8 }
       Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
   in
   Lcm_tempest.Machine.enable_trace ~capacity:65536 (Lcm_cstar.Runtime.machine rt);
   Lcm_cstar.Runtime.enable_phase_log rt;
   let r =
     Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n = 32; iters = 3; work_per_cell = 4 }
   in
   let events = Lcm_tempest.Machine.trace_events (Lcm_cstar.Runtime.machine rt) in
   (if not (Sys.file_exists "out") then Sys.mkdir "out" 0o755);
   let path = "out/lcm_trace_sample.json" in
   Traceview.export_file ~path events;
   Printf.printf "stencil 32x32 x3 under lcm-mcc: %d cycles\n"
     r.Lcm_apps.Bench_result.cycles;
   Printf.printf "%d trace events -> %s (open in chrome://tracing / Perfetto)\n"
     (List.length events) path;
   print_string
     (Phases.render (Phases.of_log (Lcm_cstar.Runtime.phase_log rt))));

  if not (Report.all_agree rows) then begin
    prerr_endline "FATAL: protocols disagreed on results";
    exit 1
  end;

  (* machine-readable export, kept out of the repo root *)
  let csv = Report.to_csv rows in
  (if not (Sys.file_exists "out") then Sys.mkdir "out" 0o755);
  let path = "out/lcm_results.csv" in
  let oc = open_out path in
  output_string oc csv;
  close_out oc;
  Printf.printf "\n(wrote %s)\n" path;

  print_endline "\nbench: done."
