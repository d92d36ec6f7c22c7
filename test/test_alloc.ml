(* Allocation-regression fence: minor GC words per simulated event on two
   pinned LCM-mcc workloads, each held under a ceiling.  The ceilings are
   fences, not aspirations: the measured steady state sits well below
   them, and a change that re-introduces per-event closure or record
   churn trips them long before it costs wall-clock (see DESIGN.md
   §"Host allocation discipline").  Words per event is amortized over
   fixed start-up allocation, so each cell's simulated event count is
   pinned too: a changed workload fails here instead of silently moving
   the number.  Host time is measured by perfbench/, not here. *)

open Lcm_harness

type cell = {
  workload : string;
  events : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let words_per_event c =
  if c.events > 0 then c.minor_words /. float_of_int c.events else 0.0

(* GC and event deltas of one run, the runtime's construction included.
   Events come from the calling domain's tally. *)
let measure ~workload f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let ev0 = Lcm_sim.Engine.domain_events () in
  f ();
  let g1 = Gc.quick_stat () in
  {
    workload;
    events = Lcm_sim.Engine.domain_events () - ev0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let runtime ~nnodes =
  Config.make_runtime
    { Config.default_machine with Config.nnodes }
    Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static

let stencil ~nnodes ~n ~iters () =
  ignore
    (Lcm_apps.Stencil.run (runtime ~nnodes)
       { Lcm_apps.Stencil.n; iters; work_per_cell = 4 })

let synthetic ~nnodes () =
  ignore (Lcm_apps.Synthetic.run (runtime ~nnodes) Lcm_apps.Synthetic.default)

(* The first simulation in a process pays one-time lazy initialization
   (registries, hashtable growth, domain-local state) that must not be
   charged to either pinned cell: burn it on a throwaway run.  The two
   measurements are explicitly sequenced — a list literal would evaluate
   right-to-left and silently reorder the cells.  [Gc.quick_stat]'s
   [minor_words] is the sample taken at a minor collection, so a cell's
   figure also depends on how full the minor heap is when its window
   opens; collecting before the warm-up makes that a function of the
   warm-up alone, not of whatever the process allocated earlier. *)
let cells =
  Gc.full_major ();
  stencil ~nnodes:4 ~n:8 ~iters:1 ();
  let s =
    measure ~workload:"stencil-64x64-i10-p32"
      (stencil ~nnodes:32 ~n:64 ~iters:10)
  in
  let y = measure ~workload:"synthetic-p16" (synthetic ~nnodes:16) in
  [ s; y ]

(* workload, pinned simulated events, minor-words-per-event ceiling *)
let pinned =
  [ ("stencil-64x64-i10-p32", 60800, 87.5); ("synthetic-p16", 13536, 41.5) ]

let cell workload = List.find (fun c -> c.workload = workload) cells

let fence (workload, events, ceiling) () =
  let c = cell workload in
  Alcotest.(check int) (workload ^ " simulated events") events c.events;
  let wpe = words_per_event c in
  if wpe > ceiling then
    Alcotest.failf
      "%s allocates %.1f minor words per event (ceiling %.1f): a change \
       re-introduced per-event allocation churn; see DESIGN.md §\"Host \
       allocation discipline\""
      workload wpe ceiling

let () =
  Printf.printf "%-24s %-8s %7s %12s %9s %6s %6s %8s\n" "workload" "policy"
    "events" "minor-words" "promoted" "majors" "w/ev" "ceiling";
  List.iter
    (fun (workload, _, ceiling) ->
      let c = cell workload in
      Printf.printf "%-24s %-8s %7d %12.0f %9.0f %6d %6.1f %8.1f\n" workload
        Config.lcm_mcc.Config.label c.events c.minor_words c.promoted_words
        c.major_collections (words_per_event c) ceiling)
    pinned;
  Alcotest.run "lcm_alloc"
    [
      ( "fence",
        List.map
          (fun ((workload, _, _) as p) -> (workload, `Quick, fence p))
          pinned );
    ]
