(* The paper workload's layer replays: the instruction-level machine
   that dominates [Experiments.all] (ablate_quantum's two five-access
   users under eight scheduler quanta) driven one [Kernel.step] at a
   time, its bus transactions replayed through [Bus.load]/[Bus.store]
   and through the DMA engine's device handler, and Table 1's
   initiation harness for every mechanism. *)

open Uldma_os
module Bus = Uldma_bus.Bus
module Txn = Uldma_bus.Txn
module Engine = Uldma_dma.Engine
module Isa = Uldma_cpu.Isa
module Regfile = Uldma_cpu.Regfile
module Addr_space = Uldma_mmu.Addr_space
module Layout = Uldma_mem.Layout
module Perms = Uldma_mem.Perms
module Mech = Uldma.Mech
module Stub_loop = Uldma_workload.Stub_loop

(* Experiments.ablate_quantum's parameters. *)
let quanta = [ 1; 3; 5; 10; 20; 50; 200; 1000 ]
let per_proc = 100
let max_steps = 3_000_000

(* The ablate_quantum machine for one quantum, built as the experiment
   builds it. *)
let ablate_quantum_machine quantum =
  let config =
    {
      Kernel.default_config with
      Kernel.mechanism = Engine.Rep_args Uldma_dma.Seq_matcher.Five;
      sched = Sched.Round_robin { quantum };
      ram_size = 2 * 1024 * 1024;
    }
  in
  let kernel = Kernel.create config in
  for i = 1 to 2 do
    let p = Kernel.spawn kernel ~name:(Printf.sprintf "user%d" i) ~program:[||] () in
    let src = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
    let dst = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
    let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
    let prepared =
      Uldma.Rep_args.mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 2 }
        ~dst:{ Mech.vaddr = dst; pages = 2 }
    in
    Process.set_program p
      (Stub_loop.build_loop
         {
           Stub_loop.iterations = per_proc;
           transfer_size = 512;
           src_base = src;
           dst_base = dst;
           pages = 2;
           result_va;
         }
         ~emit_dma:prepared.Mech.emit_dma)
  done;
  kernel

(* Pass 1: [Kernel.step] until every process has exited, each step one
   call of the "step" span. *)
let step_replay sp =
  let b = Util.bucket sp "step" in
  List.iter
    (fun quantum ->
      let k = ablate_quantum_machine quantum in
      let rec loop n =
        if n < max_steps then
          match Util.span sp b (fun () -> Kernel.step k) with
          | `Idle -> ()
          | `Stepped _ -> loop (n + 1)
      in
      loop 0)
    quanta

(* The cacheable data access [p]'s next instruction makes, if any:
   (is_store, paddr, value). Read off the process's pc, registers and
   page table before the step, so nothing in the machine changes. *)
let cached_access (p : Process.t) =
  let ctx = p.Process.ctx in
  let pc = ctx.Uldma_cpu.Cpu.pc and prog = ctx.Uldma_cpu.Cpu.program in
  if pc < 0 || pc >= Array.length prog then None
  else
    let regs = ctx.Uldma_cpu.Cpu.regs in
    let access base off value =
      let vaddr = Regfile.get regs base + off in
      match Addr_space.find_page p.Process.addr_space ~vpage:(vaddr lsr Layout.page_shift) with
      | Some pte when pte.Uldma_mmu.Pte.cacheable ->
        Some
          ( (pte.Uldma_mmu.Pte.frame lsl Layout.page_shift) lor (vaddr land (Layout.page_size - 1)),
            value )
      | Some _ | None -> None
    in
    match prog.(pc) with
    | Isa.Load (_, base, off) -> Option.map (fun (a, _) -> (false, a, 0)) (access base off 0)
    | Isa.Store (base, off, rv) ->
      Option.map (fun (a, v) -> (true, a, v)) (access base off (Regfile.get regs rv))
    | _ -> None

(* Pass 2: run the same machines again with the bus's transaction
   window on, and replay every bus access as it happens on two replicas
   of the machine's initial state — cacheable data accesses and
   uncached crossings through [Bus.load]/[Bus.store] on one replica,
   uncached crossings through the engine's device handler alone on the
   other. The replicas see the machine's transaction stream in order
   but not the kernel's context-switch hooks. Returns (cached,
   uncached) access counts. *)
let bus_replay sp =
  let b_cached = Util.bucket sp "bus.cached"
  and b_uncached = Util.bucket sp "bus.uncached"
  and b_engine = Util.bucket sp "engine.handle" in
  let cached = ref 0 and uncached = ref 0 in
  List.iter
    (fun quantum ->
      let k = ablate_quantum_machine quantum in
      let bus_replica = Kernel.bus (Kernel.snapshot k) in
      let handle = (Engine.device (Kernel.engine (Kernel.snapshot k))).Bus.handle in
      let bus = Kernel.bus k in
      Bus.set_trace bus true;
      let procs = Kernel.processes k in
      let rec loop n =
        if n < max_steps then begin
          let pending =
            List.map
              (fun (p : Process.t) -> (p, p.Process.ctx.Uldma_cpu.Cpu.pc, cached_access p))
              procs
          in
          match Kernel.step k with
          | `Idle -> ()
          | `Stepped pid ->
            List.iter
              (fun ((p : Process.t), pc, access) ->
                match access with
                | Some (is_store, paddr, value)
                  when p.Process.pid = pid && p.Process.ctx.Uldma_cpu.Cpu.pc = pc + 1 ->
                  incr cached;
                  Util.span sp b_cached (fun () ->
                      if is_store then Bus.store bus_replica ~pid ~cacheable:true paddr value
                      else ignore (Bus.load bus_replica ~pid ~cacheable:true paddr : int))
                | _ -> ())
              pending;
            if Bus.trace_len bus > 0 then begin
              List.iter
                (fun (t : Txn.t) ->
                  incr uncached;
                  Util.span sp b_uncached (fun () ->
                      match t.Txn.op with
                      | Txn.Store ->
                        Bus.store bus_replica ~pid:t.Txn.pid ~cacheable:false t.Txn.paddr
                          t.Txn.value
                      | Txn.Load ->
                        ignore
                          (Bus.load bus_replica ~pid:t.Txn.pid ~cacheable:false t.Txn.paddr
                            : int));
                  ignore (Util.span sp b_engine (fun () -> handle t) : int))
                (Bus.trace bus);
              Bus.clear_trace bus
            end;
            loop (n + 1)
        end
      in
      loop 0)
    quanta;
  (!cached, !uncached)

(* Pass 3: Table 1's harness ([Measure.initiation], 1000 initiations)
   for every mechanism; returns (name, host ns per initiation). *)
let init_replay sp =
  List.map
    (fun (m : Mech.t) ->
      let b = Util.bucket sp ("init." ^ m.Mech.name) in
      let r = Util.span sp b (fun () -> Uldma_sim.Measure.initiation m) in
      ( m.Mech.name,
        float_of_int (Util.ns_of sp ("init." ^ m.Mech.name))
        /. float_of_int r.Uldma_sim.Measure.iterations ))
    Uldma.Api.all
