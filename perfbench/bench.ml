(* The workload benchmark (see README.md beside this file).

     bench.exe --workload paper|explore|campaign|kv --seed N --seconds S --trace 0|1
               [--variant NAME] [--write-pins]

   Runs one workload in this process, on one domain, through the
   libraries' public entry points, and prints as its last line one JSON
   object with the keys correct, attempted, failed and metrics. With
   --trace 0 the metrics are the end-to-end ones, measured with no
   instrumentation; with --trace 1 they are the per-layer ones, from a
   replay of the workload's work with every layer call timed. *)

module Tbl = Uldma_util.Tbl
module Kernel = Uldma_os.Kernel
module Experiments = Uldma_sim.Experiments
module Explorer = Uldma_verify.Explorer
module Memo = Uldma_verify.Memo
module Scenario = Uldma_workload.Scenario
module Synth = Uldma_workload.Synth
module Kv = Uldma_workload.Kv_load
module Backend = Uldma_net.Backend
module Percentile = Uldma_obs.Percentile
module Pqueue = Uldma_util.Pqueue
module Phys_mem = Uldma_mem.Phys_mem

let backend name =
  match Backend.of_string name with Ok b -> b | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Operations and their checks *)

(* What one pass (or one extra checked run) did. An operation is a
   table, an exploration, a campaign candidate or a DES run. [failed]
   counts operations whose output disagreed with its expectation (or
   raised); [incomplete] counts operations whose output is the expected
   one but records unfinished work — a candidate truncated by the path
   budget. Both count against ok_share. *)
type tally = { mutable attempted : int; mutable failed : int; mutable incomplete : int }

let tally () = { attempted = 0; failed = 0; incomplete = 0 }

let complaints = ref []

let complain fmt =
  Printf.ksprintf
    (fun s -> if List.length !complaints < 20 then complaints := s :: !complaints)
    fmt

let op t ?(weight = 1) ?(incomplete = 0) ok what =
  t.attempted <- t.attempted + weight;
  if ok then t.incomplete <- t.incomplete + incomplete
  else begin
    t.failed <- t.failed + weight;
    complain "%s" what
  end

(* ------------------------------------------------------------------ *)
(* Passes *)

(* One pass of a workload's fixed job: its set-up timings, each
   operation's time and the work units (tables, schedules, requests)
   the job completes. Times are host seconds at reference speed (see
   Util.meter); the job's wall time is the sum of its operations. *)
type pass = { setups : float list; ops : (string * float) list; work : float }

let wall p = List.fold_left (fun a (_, s) -> a +. s) 0. p.ops

(* Repeat passes while another one, as long as the last, still ends
   within [seconds], and until at least [min_passes] ran. The heap is
   compacted before each pass so a pass never pays for its
   predecessor's garbage. *)
let repeat ~seconds ~min_passes f =
  let t0 = Util.now_ns () in
  let rec go i acc =
    Gc.compact ();
    let p, took = Util.time f in
    let acc = p :: acc in
    if i + 1 >= min_passes && Util.seconds_since t0 +. took > float_of_int seconds then List.rev acc
    else go (i + 1) acc
  in
  go 0 []

(* A warm-up pass — the one a user running the job once gets, whose
   peak resident set is the one reported — then metered passes within
   [seconds] of the start. *)
let run_passes ~seconds ~min_passes f =
  let t0 = Util.now_ns () in
  ignore (f (Util.meter ~timer:false ()) : pass);
  let rss = Util.peak_rss_mb () in
  let m = Util.meter () in
  let left = seconds - int_of_float (Util.seconds_since t0) in
  let passes = repeat ~seconds:left ~min_passes (fun () -> f m) in
  Util.stop m;
  (passes, rss)

(* Time one operation: with a meter, at reference speed (final after
   the meter's next flush); without, in raw host seconds. *)
let time_op ?m f =
  match m with
  | Some m -> Util.measure m f
  | None ->
    let r, s = Util.time f in
    (r, ref s)

(* Cells of one pass, read once the meter has rescaled them. *)
let finish m ~setups ~ops ~work =
  Util.flush m;
  { setups = List.map ( ! ) setups; ops = List.map (fun (n, c) -> (n, !c)) ops; work }

(* The end-to-end metrics of a run. op_p50/op_p95 are taken over the
   workload's distinct operations, each at its median over the passes:
   the host latency a user waits for a median and a 95th-percentile
   operation of the mix. *)
let end_to_end (passes, rss) ~t =
  Printf.printf "%d metered passes of %d operations\n" (List.length passes)
    (List.length (List.hd passes).ops);
  let wall = Util.median (List.map wall passes) in
  let setup = Util.median (List.concat_map (fun p -> p.setups) passes) in
  let by_op = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun (name, s) ->
          Hashtbl.replace by_op name (s :: Option.value ~default:[] (Hashtbl.find_opt by_op name)))
        p.ops)
    passes;
  let op_medians = Hashtbl.fold (fun _ xs acc -> Util.median xs :: acc) by_op [] in
  let work = (List.hd passes).work in
  let ok = t.attempted - t.failed - t.incomplete in
  [
    ("wall_s", wall, "s");
    ("setup_s", setup, "s");
    ("peak_rss_mb", rss, "MB");
    ("ok_share", float_of_int ok /. float_of_int t.attempted, "ratio");
    ("work_per_s", work /. wall, "1/s");
    ("op_p50_ms", 1e3 *. Util.nearest_rank 0.50 op_medians, "ms");
    ("op_p95_ms", 1e3 *. Util.nearest_rank 0.95 op_medians, "ms");
  ]

(* Per-layer metric names and units, in BENCHMARK.json's order. Every
   traced run prints all of them; a layer the workload's replay does
   not call reads 0. *)
let cells =
  [
    (Synth.Rep Uldma_dma.Seq_matcher.Five, "null");
    (Synth.Ext, "null");
    (Synth.Key, "null");
    (Synth.Iommu, "null");
    (Synth.Key, "atm155");
  ]

let cell_name (subject, net) = Printf.sprintf "%s-%s" (Synth.subject_label subject) net
let kv_runs =
  [ ("atm155-b8", "atm155", 8); ("gigabit-b8", "gigabit", 8); ("gigabit-b1", "gigabit", 1) ]

let layer_metrics =
  List.map (fun (e : Experiments.experiment) -> ("exp_s." ^ e.Experiments.id, "s")) Experiments.all
  @ [
      ("step_ns", "ns");
      ("steps", "count");
      ("bus.cached_ns", "ns");
      ("bus.uncached_ns", "ns");
      ("bus.cached_accesses", "count");
      ("bus.uncached_accesses", "count");
      ("engine.handle_ns", "ns");
    ]
  @ List.map (fun (m : Uldma.Mech.t) -> ("init_ns." ^ m.Uldma.Mech.name, "ns")) Uldma.Api.all
  @ [
      ("snapshot_ns", "ns");
      ("snapshots", "count");
      ("state_key_ns", "ns");
      ("bytes_hashed_per_node", "B");
      ("digest_fills", "count");
      ("page_digest_ns", "ns");
      ("key_tag_ns", "ns");
      ("memo_find_ns", "ns");
      ("memo_add_ns", "ns");
      ("hit_ratio", "ratio");
      ("evictions", "count");
      ("leg_ns", "ns");
      ("wait_leg_ns", "ns");
      ("legs", "count");
      ("stuck_legs", "count");
      ("legs_of_ns", "ns");
      ("check_ns", "ns");
      ("terminals", "count");
      ("violations_held", "count");
      ("summary_ns", "ns");
      ("fingerprint_ns", "ns");
    ]
  @ List.map (fun c -> ("cell_s." ^ cell_name c, "s")) cells
  @ [ ("synth_setup_s", "s") ]
  @ List.concat_map
      (fun (r, _, _) ->
        [ ("kv_run_s." ^ r, "s"); ("ns_per_request." ^ r, "ns"); ("doorbells." ^ r, "count") ])
      kv_runs
  @ [
      ("calibrate_s", "s");
      ("cosim_s", "s");
      ("pqueue_op_ns", "ns");
      ("percentile_record_ns", "ns");
      ("replay_residual_ns", "ns");
      ("trace_overhead", "ratio");
    ]

(* A traced run's per-layer values, per pass of the job. *)
type traced = { values : (string * float) list; residual_ns : float; overhead : float }

let layer_line tr =
  let v = Hashtbl.create 128 in
  List.iter (fun (k, x) -> Hashtbl.replace v k x) tr.values;
  Hashtbl.replace v "replay_residual_ns" tr.residual_ns;
  Hashtbl.replace v "trace_overhead" tr.overhead;
  List.map
    (fun (name, unit) -> (name, Option.value ~default:0. (Hashtbl.find_opt v name), unit))
    layer_metrics

(* Traced mode: half the time in untraced passes of the job, half in
   traced passes — the same job with every layer call in a span of
   [sp]. Returns the spans, the number of traced passes and the ratio
   of the median traced pass to the median untraced one. Time between
   traced passes goes to a bucket nobody reports. *)
let measure_traced ~seconds ~untraced ~traced =
  let half = max 1 (seconds / 2) in
  let plain = repeat ~seconds:half ~min_passes:1 (fun () -> snd (Util.time untraced)) in
  let sp = Util.spans () in
  let gap = Util.bucket sp "gap" in
  Util.enter sp gap;
  let walls =
    repeat ~seconds:half ~min_passes:1 (fun () ->
        Util.leave sp;
        let (), s = Util.time (fun () -> traced sp) in
        Util.enter sp gap;
        s)
  in
  let n = List.length walls in
  (sp, n, Util.median walls /. Util.median plain)

let residual_per_pass sp n = float_of_int sp.Util.ns.(Util.residual) /. float_of_int n

(* Per-call means of the explorer-replay spans. *)
let explorer_layers sp (c : Xreplay.counts) ~evictions =
  let per = Util.ns_per_call sp in
  let nodes = c.Xreplay.states + c.Xreplay.hits in
  [
    ("snapshot_ns", per Xreplay.s_snapshot);
    ("snapshots", float_of_int c.Xreplay.snapshots);
    ("state_key_ns", per Xreplay.s_state_key);
    ("bytes_hashed_per_node", float_of_int c.Xreplay.bytes /. float_of_int (max 1 nodes));
    ("digest_fills", float_of_int c.Xreplay.fills);
    ("key_tag_ns", per Xreplay.s_key_tag);
    ("memo_find_ns", per Xreplay.s_memo_find);
    ("memo_add_ns", per Xreplay.s_memo_add);
    ("hit_ratio", float_of_int c.Xreplay.hits /. float_of_int (max 1 c.Xreplay.probes));
    ("evictions", float_of_int evictions);
    ("leg_ns", per Xreplay.s_leg);
    ("wait_leg_ns", per Xreplay.s_wait_leg);
    ("legs", float_of_int (c.Xreplay.legs + c.Xreplay.wait_legs));
    ("legs_of_ns", per Xreplay.s_legs_of);
    ("check_ns", per Xreplay.s_check);
    ("terminals", float_of_int c.Xreplay.terminals);
    ("violations_held", float_of_int c.Xreplay.violations_held);
    ("summary_ns", per Xreplay.s_summary);
    ("fingerprint_ns", per Xreplay.s_fingerprint);
  ]

(* Unit cost of one page-digest fill: re-dirty each page the roots have
   written (same value back, on a private copy) and digest it again, as
   many times as the replay filled a page. *)
let page_digest_probe sp roots ~fills =
  let b = Util.bucket sp "page_digest" in
  let pages =
    List.concat_map
      (fun k ->
        let ram = Phys_mem.copy (Kernel.ram k) in
        let idx = ref [] in
        Phys_mem.iter_touched ram (fun i _ -> idx := i :: !idx);
        List.map (fun i -> (ram, i)) !idx)
      roots
    |> Array.of_list
  in
  let n = Array.length pages in
  if n > 0 then
    for f = 0 to fills - 1 do
      let ram, i = pages.(f mod n) in
      let a = i * Uldma_mem.Layout.page_size in
      Phys_mem.store_word ram a (Phys_mem.load_word ram a);
      ignore (Util.span sp b (fun () -> Phys_mem.page_digest ram i) : int * int)
    done;
  ("page_digest_ns", Util.ns_per_call sp "page_digest")

(* ------------------------------------------------------------------ *)
(* paper: every experiment of Experiments.all, in registry order *)

module Paper = struct
  let setup () = Expected.paper_tables ()

  let run_all ?m t expected =
    List.map
      (fun (e : Experiments.experiment) ->
        let id = e.Experiments.id in
        let tbl, c = time_op ?m e.Experiments.run in
        op t (Tbl.to_csv tbl = List.assoc id expected) ("paper: table " ^ id ^ " differs");
        (id, c))
      Experiments.all

  let pass t m =
    (* reading 21 small files: repeated so its median is steady *)
    let setups = List.init 15 (fun _ -> snd (Util.measure m setup)) in
    let expected = setup () in
    let ops = run_all ~m t expected in
    finish m ~setups ~ops ~work:(float_of_int (List.length ops))

  let traced t ~seconds =
    let expected = setup () in
    let sp, n, overhead =
      measure_traced ~seconds
        ~untraced:(fun () -> ignore (run_all (tally ()) expected : _ list))
        ~traced:(fun sp ->
          List.iter
            (fun (e : Experiments.experiment) ->
              let id = e.Experiments.id in
              let tbl = Util.span sp (Util.bucket sp ("exp." ^ id)) e.Experiments.run in
              op t (Tbl.to_csv tbl = List.assoc id expected) ("paper: table " ^ id ^ " differs"))
            Experiments.all)
    in
    (* the layers under the experiments, replayed once on their own *)
    let probe = Util.spans () in
    Machine.step_replay probe;
    let cached, uncached = Machine.bus_replay probe in
    let inits = Machine.init_replay probe in
    {
      values =
        List.map
          (fun (e : Experiments.experiment) ->
            let id = e.Experiments.id in
            ("exp_s." ^ id, float_of_int (Util.ns_of sp ("exp." ^ id)) /. float_of_int n /. 1e9))
          Experiments.all
        @ [
            ("step_ns", Util.ns_per_call probe "step");
            ("steps", float_of_int (Util.calls_of probe "step"));
            ("bus.cached_ns", Util.ns_per_call probe "bus.cached");
            ("bus.uncached_ns", Util.ns_per_call probe "bus.uncached");
            ("bus.cached_accesses", float_of_int cached);
            ("bus.uncached_accesses", float_of_int uncached);
            ("engine.handle_ns", Util.ns_per_call probe "engine.handle");
          ]
        @ List.map (fun (m, ns) -> ("init_ns." ^ m, ns)) inits;
      residual_ns = residual_per_pass sp n;
      overhead;
    }
end

(* ------------------------------------------------------------------ *)
(* explore: private-memo exhaustive explorations *)

module Explore = struct
  let untimed =
    [
      ("ext-shadow-3", fun () -> Scenario.ext_shadow_contested3 ());
      ("rep5-3", fun () -> Scenario.rep5_contested3 ());
      ("key-3", fun () -> Scenario.key_contested3 ());
      ("iommu-3", fun () -> Scenario.iommu_contested3 ());
      ("capio-3", fun () -> Scenario.capio_contested3 ());
    ]

  let timed =
    List.concat_map
      (fun (name, make) ->
        List.map
          (fun net -> (Printf.sprintf "%s@%s" name net, fun () -> make (backend net)))
          [ "atm155"; "gigabit" ])
      [
        ("rep5", fun net -> Scenario.rep5 ~net ());
        ("key-based", fun net -> Scenario.key_contested ~net ());
        ("capio", fun net -> Scenario.capio_contested ~net ());
      ]

  let scenarios = untimed @ timed

  let setup () = List.map (fun (name, make) -> (name, make ())) scenarios

  let explore ?(paranoid_memo = false) (s : Scenario.t) =
    Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ~paranoid_memo
      ~check:(Scenario.oracle_check s) ()

  let schedule_string = function
    | [] -> "-"
    | (_, schedule) :: _ -> String.concat " " (List.map string_of_int schedule)

  let pin (r : _ Explorer.result) =
    Printf.sprintf "%d,%d,%s" r.Explorer.paths (List.length r.Explorer.violations)
      (schedule_string r.Explorer.violations)

  let check t pins name (r : _ Explorer.result) =
    let ok = (not r.Explorer.truncated) && List.assoc_opt name pins = Some (pin r) in
    op t ok (Printf.sprintf "explore: %s gave %s" name (pin r))

  let pass ?paranoid_memo t pins m =
    let scs, setup = Util.measure m setup in
    let results =
      List.map
        (fun (name, s) ->
          let r, c = Util.measure m (fun () -> explore ?paranoid_memo s) in
          check t pins name r;
          (name, r, c))
        scs
    in
    finish m ~setups:[ setup ]
      ~ops:(List.map (fun (n, _, c) -> (n, c)) results)
      ~work:(float_of_int (List.fold_left (fun a (_, r, _) -> a + r.Explorer.paths) 0 results))

  let traced t pins ~seconds =
    let scs = setup () in
    let expects = ref [] in
    let last = ref (Xreplay.counts ()) and evictions = ref 0 in
    let sp, n, overhead =
      measure_traced ~seconds
        ~untraced:(fun () ->
          expects :=
            List.map
              (fun (name, s) ->
                let r = explore s in
                check t pins name r;
                (name, r.Explorer.stuck_legs, Xreplay.expect r))
              scs)
        ~traced:(fun sp ->
          let counts = Xreplay.counts () in
          evictions := 0;
          List.iter2
            (fun (name, (s : Scenario.t)) (_, _, e) ->
              let memo = Memo.create ~shards:1 ~cap:Xreplay.private_memo_cap ~locked:false in
              let mine =
                Xreplay.explore ~sp ~counts ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
                  ~table:(Xreplay.Private memo) ~check:(Scenario.oracle_check s) ()
              in
              evictions := !evictions + Memo.evictions memo;
              match Xreplay.agree mine e with
              | None -> ()
              | Some d -> op t false (Printf.sprintf "explore replay of %s disagrees: %s" name d))
            scs !expects;
          last := counts)
    in
    let probe = Util.spans () in
    let digest =
      page_digest_probe probe (List.map (fun (_, (s : Scenario.t)) -> s.Scenario.kernel) scs)
        ~fills:!last.Xreplay.fills
    in
    {
      values =
        digest
        :: ("stuck_legs", float_of_int (List.fold_left (fun a (_, st, _) -> a + st) 0 !expects))
        :: explorer_layers sp !last ~evictions:!evictions;
      residual_ns = residual_per_pass sp n;
      overhead;
    }
end

(* ------------------------------------------------------------------ *)
(* campaign: slots-3 adversary synthesis through one shared table *)

module Campaign_w = struct
  let slots = 3
  let table_cap = 1 lsl 20
  let net_of = function "null" -> None | n -> Some (backend n)

  (* Synth bases and every candidate snapshot, as [Synth.run_cell]
     builds them. *)
  let setup () =
    List.map
      (fun ((subject, net) as cell) ->
        let base = Synth.make_base ?net:(net_of net) subject in
        let cands = Array.map (Synth.candidate base) (Synth.enumerate ~slots ()) in
        (cell, base, cands))
      cells

  let check t catalogue (cr : Synth.cell_run) =
    let c = cr.Synth.cr_cell in
    let row = Synth.catalogue_row c in
    op t ~weight:c.Synth.cell_candidates ~incomplete:c.Synth.cell_truncated
      (List.mem row catalogue)
      (Printf.sprintf "campaign: row %s is not in the catalogue" row)

  let run_cells ?(cap = table_cap) ?m t catalogue =
    let shared = Explorer.create_shared ~cap () in
    List.map
      (fun ((subject, net) as cell) ->
        let run () = Synth.run_cell ?net:(net_of net) ~slots ~shared subject in
        let cr, c = time_op ?m run in
        check t catalogue cr;
        (cell, cr, c))
      cells

  let pass ?cap t catalogue m =
    let setups = List.init 3 (fun _ -> snd (Util.measure m setup)) in
    let runs = run_cells ?cap ~m t catalogue in
    let work = List.fold_left (fun a (_, cr, _) -> a + cr.Synth.cr_cell.Synth.cell_paths) 0 runs in
    finish m ~setups
      ~ops:(List.map (fun (c, _, s) -> (cell_name c, s)) runs)
      ~work:(float_of_int work)

  let traced t catalogue ~seconds =
    let setups = List.init 3 (fun _ -> snd (Util.time setup)) in
    let built = setup () in
    (* per cell: each candidate's explorer result, and the cell's seconds *)
    let expects = ref [] and cell_s = ref [] in
    let last = ref (Xreplay.counts ()) and evictions = ref 0 in
    let sp, n, overhead =
      measure_traced ~seconds
        ~untraced:(fun () ->
          let runs = run_cells t catalogue in
          expects :=
            List.map
              (fun (_, cr, _) ->
                Array.map (fun r -> (r.Explorer.stuck_legs, Xreplay.expect r)) cr.Synth.cr_results)
              runs;
          cell_s := List.map (fun (c, _, secs) -> (cell_name c, !secs)) runs :: !cell_s)
        ~traced:(fun sp ->
          let counts = Xreplay.counts () in
          let memo = Xreplay.shared_memo ~cap:table_cap in
          List.iteri
            (fun i ((cell, base, cands), expect) ->
              let sc = Synth.base_scenario base in
              let table = Xreplay.shared_table memo ~generation:(i + 1) in
              Array.iteri
                (fun j (c : _ Uldma_verify.Campaign.candidate) ->
                  let mine =
                    Xreplay.explore ~sp ~counts ~root:c.Uldma_verify.Campaign.c_root
                      ~pids:(Scenario.explore_pids sc) ~baseline:sc.Scenario.kernel
                      ?tag:c.Uldma_verify.Campaign.c_key_tag ~table
                      ~check:(Scenario.oracle_check sc) ()
                  in
                  match Xreplay.agree mine (snd expect.(j)) with
                  | None -> ()
                  | Some d ->
                    op t false
                      (Printf.sprintf "campaign replay of %s candidate %d disagrees: %s"
                         (cell_name cell) j d))
                cands)
            (List.combine built !expects);
          evictions := Memo.evictions memo;
          last := counts)
    in
    let probe = Util.spans () in
    let digest =
      page_digest_probe probe
        (List.map (fun (_, base, _) -> (Synth.base_scenario base).Scenario.kernel) built)
        ~fills:!last.Xreplay.fills
    in
    let stuck =
      List.fold_left (fun a cell -> Array.fold_left (fun a (st, _) -> a + st) a cell) 0 !expects
    in
    {
      values =
        digest
        :: ("stuck_legs", float_of_int stuck)
        :: ("synth_setup_s", Util.median setups)
        :: List.map
             (fun c ->
               let name = cell_name c in
               ("cell_s." ^ name, Util.median (List.map (List.assoc name) !cell_s)))
             cells
        @ explorer_layers sp !last ~evictions:!evictions;
      residual_ns = residual_per_pass sp n;
      overhead;
    }
end

(* ------------------------------------------------------------------ *)
(* kv: the cluster KV load generator's closed-loop DES *)

module Kv_w = struct
  let mech = "ext-shadow"
  let nodes = 4
  let burst_words = 64
  let transfers = 100_000
  let pinned_seed = Kv.default_params.Kv.seed
  let held_out_seed = 1_000_003

  let params ~seed ~batch = { Kv.default_params with Kv.transfers; seed; batch; mech; nodes }

  (* calibration, the 4-node cluster and its cosim burst *)
  let setup t =
    let cal = match Kv.calibrate mech with Ok c -> c | Error e -> failwith e in
    let cluster =
      match Uldma.Session.cluster ~net:"atm155" ~mech ~nodes () with
      | Ok c -> c
      | Error e -> failwith e
    in
    let bytes, _packets = Kv.cosim_burst cluster ~words:burst_words in
    op t (bytes = nodes * burst_words * 8) (Printf.sprintf "kv: cosim moved %d bytes" bytes);
    cal

  let pin (r : Kv.result) =
    let pc q = Percentile.percentile r.Kv.latency q in
    Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d" r.Kv.gets r.Kv.puts r.Kv.doorbells r.Kv.value_bytes
      r.Kv.wire_bytes r.Kv.sim_ps (pc 0.50) (pc 0.99) (pc 0.999)

  (* Invariants every seed must satisfy, plus the pinned report for the
     pinned seed. *)
  let check t pins ~seed name (p : Kv.params) (r : Kv.result) =
    let pc q = Percentile.percentile r.Kv.latency q in
    let invariant =
      r.Kv.gets + r.Kv.puts = r.Kv.transfers
      && r.Kv.transfers = p.Kv.transfers
      && pc 0.50 <= pc 0.99
      && pc 0.99 <= pc 0.999
      && r.Kv.value_bytes = r.Kv.transfers * p.Kv.value_size
    in
    let pinned = seed <> pinned_seed || List.assoc_opt name pins = Some (pin r) in
    op t (invariant && pinned) (Printf.sprintf "kv: %s seed %d gave %s" name seed (pin r))

  let run_all ?m t pins ~seed cal =
    List.map
      (fun (name, net, batch) ->
        let p = params ~seed ~batch in
        let run () = Kv.run p ~cal ~net:(backend net) in
        let r, c = time_op ?m run in
        check t pins ~seed name p r;
        (name, r, c))
      kv_runs

  let pass t pins ~seed m =
    let cal, setup = Util.measure m (fun () -> setup t) in
    let runs = run_all ~m t pins ~seed cal in
    finish m ~setups:[ setup ]
      ~ops:(List.map (fun (n, _, c) -> (n, c)) runs)
      ~work:(float_of_int (List.length runs * transfers))

  (* checked once per run, untimed: the pinned seed on every
     configuration, and one configuration on a held-out seed *)
  let extra_checks t pins cal =
    ignore (run_all t pins ~seed:pinned_seed cal : _ list);
    let name, net, batch = List.hd kv_runs in
    let p = params ~seed:held_out_seed ~batch in
    check t pins ~seed:held_out_seed name p (Kv.run p ~cal ~net:(backend net))

  (* [Pqueue] at the DES's occupancy (every client's window full), one
     pop and one push per event — three events per request: the
     client's step, the request's arrival, the response — and
     [Percentile.record] once per request. Timed in bulk: a clock read
     per call would cost more than the call. *)
  let des_probe sp ~events ~samples =
    let occupancy = Kv.default_params.Kv.clients * Kv.default_params.Kv.window in
    let rng = Uldma_util.Rng.create ~seed:1 in
    let q = Pqueue.create () in
    for i = 1 to occupancy do
      Pqueue.push q ~key:(Uldma_util.Rng.int rng 1_000_000) i
    done;
    let bq = Util.bucket sp "pqueue" in
    Util.enter sp bq;
    for _ = 1 to events do
      match Pqueue.pop q with
      | Some (k, v) -> Pqueue.push q ~key:(k + 1 + (v land 0xffff)) v
      | None -> ()
    done;
    Util.leave sp;
    let h = Percentile.create () in
    let bp = Util.bucket sp "percentile" in
    Util.enter sp bp;
    for i = 1 to samples do
      Percentile.record h (1_000_000 + ((i * 7919) land 0xfffff))
    done;
    Util.leave sp;
    [
      ("pqueue_op_ns", float_of_int (Util.ns_of sp "pqueue") /. float_of_int (2 * events));
      ("percentile_record_ns", float_of_int (Util.ns_of sp "percentile") /. float_of_int samples);
    ]

  let traced t pins ~seed ~seconds =
    let cal = setup t in
    let doorbells = ref [] in
    let sp, n, overhead =
      measure_traced ~seconds
        ~untraced:(fun () -> ignore (run_all t pins ~seed cal : _ list))
        ~traced:(fun sp ->
          doorbells :=
            List.map
              (fun (name, net, batch) ->
                let p = params ~seed ~batch in
                let r =
                  Util.span sp
                    (Util.bucket sp ("kv." ^ name))
                    (fun () -> Kv.run p ~cal ~net:(backend net))
                in
                check t pins ~seed name p r;
                (name, r.Kv.doorbells))
              kv_runs)
    in
    let probe = Util.spans () in
    ignore
      (Util.span probe (Util.bucket probe "calibrate") (fun () -> Kv.calibrate mech)
        : (Kv.calibration, string) result);
    Util.span probe (Util.bucket probe "cosim") (fun () ->
        let cluster = Uldma.Session.cluster_exn ~net:"atm155" ~mech ~nodes () in
        ignore (Kv.cosim_burst cluster ~words:burst_words : int * int));
    let des =
      des_probe probe ~events:(3 * transfers * List.length kv_runs)
        ~samples:(transfers * List.length kv_runs)
    in
    let run_s name = float_of_int (Util.ns_of sp ("kv." ^ name)) /. float_of_int n /. 1e9 in
    {
      values =
        des
        @ [
            ("calibrate_s", float_of_int (Util.ns_of probe "calibrate") /. 1e9);
            ("cosim_s", float_of_int (Util.ns_of probe "cosim") /. 1e9);
          ]
        @ List.concat_map
            (fun (name, doorbells) ->
              [
                ("kv_run_s." ^ name, run_s name);
                ("ns_per_request." ^ name, run_s name *. 1e9 /. float_of_int transfers);
                ("doorbells." ^ name, float_of_int doorbells);
              ])
            !doorbells;
      residual_ns = residual_per_pass sp n;
      overhead;
    }
end

(* ------------------------------------------------------------------ *)
(* Pins: regenerate perfbench/expected/ from the current program *)

let write_pins () =
  let write name lines =
    Out_channel.with_open_bin (Expected.pinned name) (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  in
  Out_channel.with_open_bin (Expected.pinned "matrix6.csv") (fun oc ->
      output_string oc (Tbl.to_csv (Experiments.matrix6 ())));
  write "explore.csv"
    ("# scenario,paths,violating schedules,first violating schedule"
    :: List.map (fun (name, s) -> name ^ "," ^ Explore.pin (Explore.explore s)) (Explore.setup ()));
  let t = tally () in
  let cal = Kv_w.setup t in
  write "kv.csv"
    (Printf.sprintf "# run,gets,puts,doorbells,value_bytes,wire_bytes,sim_ps,p50_ps,p99_ps,p999_ps (seed %d, %d transfers)"
       Kv_w.pinned_seed Kv_w.transfers
    :: List.map
         (fun (name, net, batch) ->
           name ^ ","
           ^ Kv_w.pin (Kv.run (Kv_w.params ~seed:Kv_w.pinned_seed ~batch) ~cal ~net:(backend net)))
         kv_runs)

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let variant = ref "" and pins = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paper|explore|campaign|kv");
      ("--seed", Arg.Set_int seed, "N input seed (kv; the others are exhaustive and ignore it)");
      ("--seconds", Arg.Set_int seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ( "--variant",
        Arg.Set_string variant,
        "NAME run a slower mode the program offers: paranoid_memo (explore), memo_cap (campaign)" );
      ("--write-pins", Arg.Set pins, " regenerate perfbench/expected/ from the current program");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !pins then write_pins ()
  else begin
    let t = tally () in
    let seconds = !seconds and seed = !seed in
    let metrics =
      match (!workload, !trace, !variant) with
      | "paper", 0, "" ->
        end_to_end (run_passes ~seconds ~min_passes:4 (Paper.pass t)) ~t
      | "paper", 1, "" -> layer_line (Paper.traced t ~seconds)
      | "explore", 0, ("" | "paranoid_memo") ->
        let pins = Expected.explore_pins () in
        let paranoid_memo = !variant = "paranoid_memo" in
        end_to_end (run_passes ~seconds ~min_passes:5 (Explore.pass ~paranoid_memo t pins)) ~t
      | "explore", 1, "" -> layer_line (Explore.traced t (Expected.explore_pins ()) ~seconds)
      | "campaign", 0, ("" | "memo_cap") ->
        let catalogue = Expected.catalogue () in
        let cap = if !variant = "memo_cap" then Some 4096 else None in
        end_to_end (run_passes ~seconds ~min_passes:3 (Campaign_w.pass ?cap t catalogue)) ~t
      | "campaign", 1, "" -> layer_line (Campaign_w.traced t (Expected.catalogue ()) ~seconds)
      | "kv", 0, "" ->
        let pins = Expected.kv_pins () in
        let run = run_passes ~seconds ~min_passes:5 (Kv_w.pass t pins ~seed) in
        Kv_w.extra_checks t pins (Kv_w.setup (tally ()));
        end_to_end run ~t
      | "kv", 1, "" ->
        let pins = Expected.kv_pins () in
        let tr = Kv_w.traced t pins ~seed ~seconds in
        Kv_w.extra_checks t pins (Kv_w.setup (tally ()));
        layer_line tr
      | w, tr, v ->
        Printf.eprintf "unknown workload/trace/variant: %S %d %S\n" w tr v;
        exit 2
    in
    List.iter (fun c -> prerr_endline ("check failed: " ^ c)) (List.rev !complaints);
    print_endline
      (Util.result_line ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed metrics)
  end
