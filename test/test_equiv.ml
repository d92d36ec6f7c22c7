(* Before/after equivalence pins for the host-performance work.

   Each fixed-seed workload below was run once on the pre-optimization
   simulator and its Fingerprint recorded verbatim.  The digests cover the
   final memory image word-for-word, every counter/gauge/sample, the full
   trace event sequence and the final clock — so any hot-path "optimization"
   that changes simulated behaviour in any observable way fails here
   bit-for-bit.

   To re-record after an INTENTIONAL semantic change (a protocol fix, a new
   counter), run:

     LCM_EQUIV_RECORD=1 dune exec test/test_equiv.exe -- --verbose 2>&1 | grep 'workload '

   and paste the printed table over [expected]. *)

open Lcm_harness

let trace_capacity = 1 lsl 20

let systems =
  [ Config.stache; Config.lcm_scc; Config.lcm_mcc; Config.lcm_mcc_update ]

let traced_runtime ?(machine = { Config.default_machine with Config.nnodes = 8 })
    ?(schedule = Lcm_cstar.Schedule.Static) sys =
  let rt = Config.make_runtime machine sys ~schedule in
  Lcm_tempest.Machine.enable_trace ~capacity:trace_capacity
    (Lcm_cstar.Runtime.machine rt);
  rt

let stencil24 = { Lcm_apps.Stencil.n = 24; iters = 3; work_per_cell = 4 }

let run_stencil ?machine sys =
  let rt = traced_runtime ?machine sys in
  ignore (Lcm_apps.Stencil.run rt stencil24);
  Fingerprint.of_runtime rt

let run_unstructured ?machine sys =
  let rt = traced_runtime ?machine sys in
  ignore
    (Lcm_apps.Unstructured.run rt
       {
         Lcm_apps.Unstructured.nodes = 48;
         edges = 128;
         iters = 3;
         seed = 11;
         work_per_node = 6;
       });
  Fingerprint.of_runtime rt

(* The tiny-scale adaptive-dyn figure cell (same parameters and schedule
   seed as the experiments harness) on the full 32-node machine: directory
   sweeps over many entries and deep request queues. *)
let run_adaptive_dyn sys =
  let rt =
    traced_runtime ~machine:Config.default_machine
      ~schedule:(Lcm_cstar.Schedule.Dynamic_random 5) sys
  in
  ignore
    (Lcm_apps.Adaptive.run rt
       {
         Lcm_apps.Adaptive.n = 12;
         iters = 4;
         max_depth = 2;
         subdiv_threshold = 2.0;
         arena_per_node = 512;
         work_per_cell = 6;
       });
  Fingerprint.of_runtime rt

(* An 8-block cache forces capacity evictions (102 of them) and the
   LRU-heap rebuild; 16 blocks already hold the whole working set. *)
let small_cache =
  { Config.default_machine with Config.nnodes = 8; capacity_blocks = Some 8 }

(* The 5%-rate chaos plan (drops, duplicates, jitter, link flaps) under the
   reliable transport: 546 acks, 52 drops and 64 retransmissions. *)
let chaos =
  match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed:7 with
  | Ok plan -> { Config.default_machine with Config.nnodes = 8; faults = Some plan }
  | Error e -> failwith e

let workloads =
  List.map
    (fun s -> (Printf.sprintf "stencil24/%s" s.Config.label, fun () -> run_stencil s))
    (systems @ [ Config.msi; Config.mesi; Config.moesi ])
  @ List.map
      (fun s -> (Printf.sprintf "unstructured48/%s" s.Config.label, fun () -> run_unstructured s))
      systems
  @ [
      ( "stencil24-cap8/" ^ Config.lcm_mcc.Config.label,
        fun () -> run_stencil ~machine:small_cache Config.lcm_mcc );
    ]
  @ List.map
      (fun s -> (Printf.sprintf "adaptive-dyn-tiny/%s" s.Config.label, fun () -> run_adaptive_dyn s))
      [ Config.lcm_mcc; Config.stache ]
  @ [
      (* capacity-eviction writebacks (115 [put]) and recall nacks (5) *)
      ( "unstructured48-cap8/" ^ Config.stache.Config.label,
        fun () -> run_unstructured ~machine:small_cache Config.stache );
      ( "stencil24-chaos/" ^ Config.lcm_mcc.Config.label,
        fun () -> run_stencil ~machine:chaos Config.lcm_mcc );
    ]

(* Re-recorded after the loopback bugfix (src = dst messages now cost
   msg_fixed only and skip channel occupancy): cycle/counter/trace digests
   moved for the workloads that self-send; every [mem] digest is
   unchanged — the fix is timing-only. *)
let expected =
  [
    ("workload stencil24/Stache+copy", "cycles=26188 mem=274d3d7a1bd7c09 counters=879e8156f83f27c9 trace=9e90a8e1f7c1e321/1752");
    ("workload stencil24/LCM-scc", "cycles=104640 mem=3a5dbccc5e12b3c5 counters=5b311973d41d11c7 trace=81000cf0ee326505/11904");
    ("workload stencil24/LCM-mcc", "cycles=68730 mem=3a5dbccc5e12b3c5 counters=480383b2591287bf trace=ac8641ee1c9d2677/5124");
    ("workload stencil24/LCM-mcc-update", "cycles=62034 mem=3a5dbccc5e12b3c5 counters=4bece52298a2c81d trace=daaee9872eb4cdfb/4536");
    ("workload unstructured48/Stache+copy", "cycles=27049 mem=148971b3a90edd71 counters=4c2e3e52f447ac67 trace=9803138ffa5aeb3f/2187");
    ("workload unstructured48/LCM-scc", "cycles=31562 mem=708485218d1d7b20 counters=c276579d0212dda6 trace=8b923102f9fb0a35/3559");
    ("workload unstructured48/LCM-mcc", "cycles=23013 mem=708485218d1d7b20 counters=457de1507267e27a trace=f5972616b544234/2809");
    ("workload unstructured48/LCM-mcc-update", "cycles=16209 mem=708485218d1d7b20 counters=9a517cc7bac4722a trace=c00282dd205d1a4f/2235");
    (* recorded before the per-block tables moved off Hashtbl: the snoop
       state table, capacity evictions and large directory sweeps *)
    ("workload stencil24/MSI", "cycles=51839 mem=274d3d7a1bd7c09 counters=97e1cabec012d70f trace=6904c842b7a64fe9/798");
    ("workload stencil24/MESI", "cycles=48731 mem=274d3d7a1bd7c09 counters=28b2b5b480e72f8b trace=39097e1885f182b5/768");
    ("workload stencil24/MOESI", "cycles=48731 mem=274d3d7a1bd7c09 counters=28b2b5b480e72f8b trace=39097e1885f182b5/768");
    ("workload stencil24-cap8/LCM-mcc", "cycles=66810 mem=3a5dbccc5e12b3c5 counters=c69657f714c3fa6f trace=2b61cecea1aa7c50/4818");
    ("workload adaptive-dyn-tiny/LCM-mcc", "cycles=151422 mem=212d223b95f3d45d counters=ad8cb2a5e6c75b7f trace=9fb8d5a8b27c8749/45480");
    ("workload adaptive-dyn-tiny/Stache+copy", "cycles=396218 mem=9146b184d4544113 counters=b3413af8e978ade8 trace=67cef6981bd0854c/60183");
    (* recorded before the closure/pooled send paths were merged: the
       eviction writeback and recall-nack senders, and the reliable
       transport under a fault plan *)
    ("workload unstructured48-cap8/Stache+copy", "cycles=103983 mem=148971b3a90edd71 counters=c471c43c77946d6b trace=d74d67b2e85addd5/9231");
    ("workload stencil24-chaos/LCM-mcc", "cycles=77781 mem=3a5dbccc5e12b3c5 counters=406323cd2b7b6d69 trace=2db8999605b5f147/6434");
  ]

let recording = Sys.getenv_opt "LCM_EQUIV_RECORD" <> None

let test_pinned () =
  List.iter
    (fun (name, run) ->
      let fp = Fingerprint.to_string (run ()) in
      if recording then Printf.printf "    (\"workload %s\", %S);\n%!" name fp
      else
        match List.assoc_opt ("workload " ^ name) expected with
        | Some want -> Alcotest.(check string) name want fp
        | None -> Alcotest.failf "no recorded fingerprint for %s" name)
    workloads

(* Same build, run twice: determinism of the digest itself. *)
let test_self_stable () =
  let a = run_stencil Config.lcm_mcc and b = run_stencil Config.lcm_mcc in
  Alcotest.(check bool) "identical reruns" true (Fingerprint.equal a b);
  Alcotest.(check string)
    "identical rendering"
    (Fingerprint.to_string a)
    (Fingerprint.to_string b)

let () =
  Alcotest.run "equiv"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "pinned workloads" `Slow test_pinned;
          Alcotest.test_case "self stable" `Quick test_self_stable;
        ] );
    ]
