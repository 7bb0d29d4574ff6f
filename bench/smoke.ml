(* @bench-smoke — a seconds-scale exercise of the perf-critical paths,
   wired into `dune runtest` so they cannot bit-rot between full bench
   runs: one small exhaustive exploration (fig5, known 126 schedules),
   a 10-iteration initiation measurement, and a clipped 3-process
   contested exploration driven through both new explorer mechanisms
   (work stealing at jobs=2 and bounded-memo eviction). Exits non-zero
   on any deviation. *)

module Scenario = Uldma_workload.Scenario
module Explorer = Uldma_verify.Explorer

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-smoke: " ^ s); exit 1) fmt

let explore ?max_paths ?jobs ?memo_cap s =
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?max_paths ?jobs
    ?memo_cap ~check:(Scenario.oracle_check s) ()

let () =
  let r = explore (Scenario.fig5 ()) in
  if r.Explorer.truncated then fail "fig5 exploration truncated";
  if r.Explorer.paths <> 126 then
    fail "fig5 exploration found %d schedules, expected 126" r.Explorer.paths;
  let m = Uldma_sim.Measure.initiation ~iterations:10 (Uldma.Api.find_exn "ext-shadow") in
  if m.Uldma_sim.Measure.successes <> 10 then
    fail "ext-shadow initiation: %d/10 succeeded" m.Uldma_sim.Measure.successes;
  (* 3-process contested workload, clipped by max_paths: the bounded
     memo must evict under a tiny cap and still count the same clipped
     frontier the sequential default-cap run reaches, and the
     work-stealing jobs=2 run on the untruncated small variant must
     reproduce the sequential results exactly *)
  let big () = Scenario.key_contested3 () in
  let r_cap = explore ~max_paths:2000 ~memo_cap:64 (big ()) in
  if not r_cap.Explorer.truncated then fail "key-3 clipped exploration should truncate";
  if r_cap.Explorer.evictions = 0 then fail "key-3 with memo_cap 64 evicted nothing";
  let small () = Scenario.ext_shadow_contested3 ~victim_repeat:1 ~tenant_repeat:1 () in
  let s_seq = small () in
  let r_seq = explore s_seq in
  let r_par = explore ~jobs:2 (small ()) in
  if r_seq.Explorer.truncated then fail "ext-shadow-3 (small) truncated";
  if r_par.Explorer.paths <> r_seq.Explorer.paths then
    fail "ext-shadow-3 jobs=2 found %d schedules, sequential %d" r_par.Explorer.paths
      r_seq.Explorer.paths;
  if
    List.map snd r_par.Explorer.violations <> List.map snd r_seq.Explorer.violations
    || r_par.Explorer.stuck_legs <> r_seq.Explorer.stuck_legs
  then fail "ext-shadow-3 jobs=2 diverged from the sequential run";
  (* page digests are kept current on the write paths, so a memo key
     hashes a few tokens per dirty page, never the page itself *)
  let nodes = r_seq.Explorer.states_visited + r_seq.Explorer.dedup_hits in
  let per_node = r_seq.Explorer.bytes_hashed / max 1 nodes in
  if per_node >= 4096 then
    fail "ext-shadow-3 hashed %d bytes per node: a full page digest is back on the key path"
      per_node;
  let fills = Uldma_mem.Phys_mem.digest_fills (Uldma_os.Kernel.ram s_seq.Scenario.kernel) in
  if fills <> 0 then fail "ext-shadow-3 root RAM hashed %d whole pages" fills;
  Printf.printf
    "bench-smoke ok: fig5 %d schedules, ext-shadow %.2f us/initiation, key-3 clipped with %d \
     evictions, ext-shadow-3 %d schedules (jobs=2, %d steals, %d B hashed per node)\n"
    r.Explorer.paths m.Uldma_sim.Measure.us_per_initiation r_cap.Explorer.evictions
    r_seq.Explorer.paths r_par.Explorer.steals per_node
