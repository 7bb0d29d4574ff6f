(* The explorer's sequential search, replayed from outside the library
   through the public functions it is made of — [Kernel.state_key],
   [Kernel.snapshot], [Memo.find]/[add], [Explorer.advance_one_leg],
   [Kernel.advance_to_next_completion] and the oracle check — with each
   call timed into its own span.

   The replay is only worth its numbers if it does the same work as
   [Explorer.explore] at [jobs = 1]: the same nodes in the same order,
   the same memo decisions, the same forks (the last leg of a node runs
   in the parent, see the explorer's snapshot elision), the same key
   bytes and the same violation lists. [agree] checks that on paths,
   states, hits, snapshots, bytes hashed and the violating schedules;
   the benchmark counts a replay that disagrees as a failed operation. *)

open Uldma_os
module Explorer = Uldma_verify.Explorer
module Memo = Uldma_verify.Memo
module Fp128 = Uldma_util.Fp128
module Phys_mem = Uldma_mem.Phys_mem

(* A memoized subtree, as the explorer stores it: violations carry
   their suffix schedule and the index of their terminal within the
   subtree. *)
type 'v summary = { s_paths : int; s_viol : ('v * int list * int) list; s_stuck : int }

let empty = { s_paths = 0; s_viol = []; s_stuck = 0 }

(* Counts over every exploration replayed into one [counts]. *)
type counts = {
  mutable states : int;
  mutable hits : int;
  mutable snapshots : int;
  mutable bytes : int;
  mutable fills : int;
  mutable legs : int;
  mutable wait_legs : int;
  mutable terminals : int;
  mutable violations_held : int; (* violation entries stored in memo summaries *)
  mutable probes : int;
}

let counts () =
  {
    states = 0;
    hits = 0;
    snapshots = 0;
    bytes = 0;
    fills = 0;
    legs = 0;
    wait_legs = 0;
    terminals = 0;
    violations_held = 0;
    probes = 0;
  }

(* Span names, shared with the metric names in bench.ml. *)
let s_snapshot = "snapshot"
let s_state_key = "state_key"
let s_key_tag = "key_tag"
let s_memo_find = "memo_find"
let s_memo_add = "memo_add"
let s_leg = "leg"
let s_wait_leg = "wait_leg"
let s_check = "check"
let s_legs_of = "legs_of"
let s_fingerprint = "fingerprint"
let s_summary = "summary"

type 'v table =
  | Private of 'v summary Memo.t
  | Shared of { memo : 'v summary Memo.t; prefix : string }
      (** a campaign table: keys carry the cell's generation prefix and
          the candidate's residual tag, folded as the explorer folds them *)

type 'v ctx = {
  sp : Util.spans;
  b_snapshot : int;
  b_state_key : int;
  b_key_tag : int;
  b_memo_find : int;
  b_memo_add : int;
  b_leg : int;
  b_wait_leg : int;
  b_check : int;
  b_legs_of : int;
  b_summary : int;
  baseline : Kernel.t;
  pids : int list;
  check : Kernel.t -> 'v option;
  table : 'v table;
  tag : (Kernel.t -> string) option;
  max_instructions : int;
  c : counts;
  mutable used : int; (* terminals counted against the path budget *)
  mutable capped : bool;
  mutable run_states : int;
  mutable run_hits : int;
  mutable run_snapshots : int;
  mutable run_bytes : int;
  mutable found : ('v * int list) list; (* violations with full schedules, newest first *)
}

(* The explorer's defaults (Explorer.explore). *)
let max_paths = 1_000_000
let default_max_instructions = 2000
let private_memo_cap = 1 lsl 18

let generation_prefix gen =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int gen);
  Bytes.unsafe_to_string b

let key x k =
  let ram = Kernel.ram k in
  let f0 = Phys_mem.digest_fills ram in
  let key, bytes =
    Util.span x.sp x.b_state_key (fun () ->
        Kernel.state_key ~relative_to:x.baseline ~paranoid:false k)
  in
  x.c.fills <- x.c.fills + (Phys_mem.digest_fills ram - f0);
  x.c.bytes <- x.c.bytes + bytes;
  x.run_bytes <- x.run_bytes + bytes;
  match (x.table, x.tag) with
  | Private _, _ -> key
  | Shared { prefix; _ }, None -> prefix ^ key
  | Shared { prefix; _ }, Some tag ->
    Util.span x.sp x.b_key_tag (fun () ->
        let fp = Fp128.create () in
        Fp128.add_string fp prefix;
        Fp128.add_string fp (tag k);
        Fp128.add_string fp key;
        Fp128.key fp)

let find x e =
  x.c.probes <- x.c.probes + 1;
  Util.span x.sp x.b_memo_find (fun () ->
      match x.table with
      | Private m -> Memo.find m e
      | Shared { memo; _ } -> fst (Memo.find_with_shard memo e))

let store x e s =
  x.c.violations_held <- x.c.violations_held + List.length s.s_viol;
  Util.span x.sp x.b_memo_add (fun () ->
      match x.table with
      | Private m -> Memo.add m e s
      | Shared { memo; _ } -> ignore (Memo.try_add memo e s : bool))

let legs_of x k =
  Util.span x.sp x.b_legs_of (fun () ->
      let live = Kernel.runnable_pids k in
      let runnable = List.filter (fun pid -> List.mem pid live) x.pids in
      match Kernel.next_transfer_deadline k with
      | Some _ -> runnable @ [ Explorer.wait_leg ]
      | None -> runnable)

let advance x k leg =
  if leg = Explorer.wait_leg then begin
    x.c.wait_legs <- x.c.wait_legs + 1;
    Util.span x.sp x.b_wait_leg (fun () ->
        if Kernel.advance_to_next_completion k then `Progress else `Stuck)
  end
  else begin
    x.c.legs <- x.c.legs + 1;
    Util.span x.sp x.b_leg (fun () ->
        Explorer.advance_one_leg k leg ~max_instructions:x.max_instructions)
  end

let snapshot x k =
  x.c.snapshots <- x.c.snapshots + 1;
  x.run_snapshots <- x.run_snapshots + 1;
  Util.span x.sp x.b_snapshot (fun () -> Kernel.snapshot k)

(* One node of the search, reached by [schedule_rev] (newest leg
   first); returns its summary and whether the subtree was fully
   explored within the path budget (only then is it memoized). *)
let rec node x k schedule_rev =
  if x.used >= max_paths then begin
    x.capped <- true;
    (empty, false)
  end
  else begin
    let e = key x k in
    match find x e with
    | Some s when x.used + s.s_paths <= max_paths ->
      x.used <- x.used + s.s_paths;
      x.c.hits <- x.c.hits + 1;
      x.run_hits <- x.run_hits + 1;
      (* a hit re-emits the subtree's violations under this prefix *)
      if s.s_viol <> [] then
        Util.span x.sp x.b_summary (fun () ->
            let prefix = List.rev schedule_rev in
            List.iter (fun (v, sfx, _) -> x.found <- (v, prefix @ sfx) :: x.found) s.s_viol);
      (s, true)
    | Some _ | None -> (
      x.c.states <- x.c.states + 1;
      x.run_states <- x.run_states + 1;
      match legs_of x k with
      | [] ->
        x.used <- x.used + 1;
        x.c.terminals <- x.c.terminals + 1;
        let s =
          match Util.span x.sp x.b_check (fun () -> x.check k) with
          | Some v ->
            x.found <- (v, List.rev schedule_rev) :: x.found;
            { s_paths = 1; s_viol = [ (v, [], 0) ]; s_stuck = 0 }
          | None -> { s_paths = 1; s_viol = []; s_stuck = 0 }
        in
        store x e s;
        (s, true)
      | legs ->
        let paths = ref 0 and viol = ref [] and stuck = ref 0 and clean = ref true in
        let rec expand = function
          | [] -> ()
          | leg :: tail ->
            (if x.used >= max_paths then begin
               x.capped <- true;
               clean := false
             end
             else begin
               (* the last leg advances the node itself: it is dead
                  once its key has been taken *)
               let fork = if tail = [] then k else snapshot x k in
               match advance x fork leg with
               | `Progress | `Exited ->
                 let s, c = node x fork (leg :: schedule_rev) in
                 if s.s_viol <> [] then
                   Util.span x.sp x.b_summary (fun () ->
                       List.iter
                         (fun (v, sfx, i) -> viol := (v, leg :: sfx, !paths + i) :: !viol)
                         s.s_viol);
                 paths := !paths + s.s_paths;
                 stuck := !stuck + s.s_stuck;
                 if not c then clean := false
               | `Stuck -> incr stuck
             end);
            expand tail
        in
        expand legs;
        let s_viol =
          if !viol = [] then [] else Util.span x.sp x.b_summary (fun () -> List.rev !viol)
        in
        let s = { s_paths = !paths; s_viol; s_stuck = !stuck } in
        if !clean then store x e s;
        (s, !clean))
  end

(* Order-sensitive digest of a violation list's schedules. *)
let schedules_digest violations =
  List.fold_left
    (fun h (_, schedule) ->
      List.fold_left (fun h leg -> (h * 1_000_003) lxor (leg + 7)) ((h * 31) + 1) schedule)
    17 violations

type run = {
  r_paths : int;
  r_violations : int;
  r_digest : int;
  r_truncated : bool;
  r_states : int;
  r_hits : int;
  r_snapshots : int;
  r_bytes : int;
}

(* Replay one [Explorer.explore ~root ~pids ?baseline ~check ()] call;
   [table] is a fresh private memo for a stand-alone exploration or
   the campaign's shared one. *)
let explore ~sp ~counts ~root ~pids ?baseline ?tag ~table ~check () =
  let b = Util.bucket sp in
  let x =
    {
      sp;
      b_snapshot = b s_snapshot;
      b_state_key = b s_state_key;
      b_key_tag = b s_key_tag;
      b_memo_find = b s_memo_find;
      b_memo_add = b s_memo_add;
      b_leg = b s_leg;
      b_wait_leg = b s_wait_leg;
      b_check = b s_check;
      b_legs_of = b s_legs_of;
      b_summary = b s_summary;
      baseline = (match baseline with Some k -> k | None -> root);
      pids;
      check;
      table;
      tag;
      max_instructions = default_max_instructions;
      c = counts;
      used = 0;
      capped = false;
      run_states = 0;
      run_hits = 0;
      run_snapshots = 0;
      run_bytes = 0;
      found = [];
    }
  in
  (* the explorer fingerprints its root first (the persistent cache's
     guard), then searches from a private snapshot of it *)
  ignore (Util.span sp (b s_fingerprint) (fun () -> Kernel.fingerprint root) : int64);
  let seed = snapshot x root in
  ignore (node x seed [] : _ summary * bool);
  let violations = List.rev x.found in
  {
    r_paths = x.used;
    r_violations = List.length violations;
    r_digest = schedules_digest violations;
    r_truncated = x.capped;
    r_states = x.run_states;
    r_hits = x.run_hits;
    r_snapshots = x.run_snapshots;
    r_bytes = x.run_bytes;
  }

(* [Explorer.create_shared ~cap ()]'s table, generation [gen]. *)
let shared_memo ~cap = Memo.create ~shards:64 ~cap ~locked:true
let shared_table memo ~generation = Shared { memo; prefix = generation_prefix generation }

(* What [Explorer.explore] reported for one exploration, kept without
   its violation list so a campaign's results need not stay alive
   while they are replayed. *)
type expect = {
  e_paths : int;
  e_states : int;
  e_hits : int;
  e_snapshots : int;
  e_bytes : int;
  e_violations : int;
  e_digest : int;
  e_truncated : bool;
}

let expect (e : _ Explorer.result) =
  {
    e_paths = e.Explorer.paths;
    e_states = e.Explorer.states_visited;
    e_hits = e.Explorer.dedup_hits;
    e_snapshots = e.Explorer.snapshots;
    e_bytes = e.Explorer.bytes_hashed;
    e_violations = List.length e.Explorer.violations;
    e_digest = schedules_digest e.Explorer.violations;
    e_truncated = e.Explorer.truncated;
  }

(* [None] when the replay did the explorer's work exactly, otherwise
   what differs. *)
let agree (r : run) (e : expect) =
  let diffs =
    List.filter_map
      (fun (what, mine, theirs) ->
        if mine = theirs then None else Some (Printf.sprintf "%s %d vs %d" what mine theirs))
      [
        ("paths", r.r_paths, e.e_paths);
        ("states", r.r_states, e.e_states);
        ("hits", r.r_hits, e.e_hits);
        ("snapshots", r.r_snapshots, e.e_snapshots);
        ("bytes_hashed", r.r_bytes, e.e_bytes);
        ("violations", r.r_violations, e.e_violations);
        ("violation schedules digest", r.r_digest, e.e_digest);
        ("truncated", Bool.to_int r.r_truncated, Bool.to_int e.e_truncated);
      ]
  in
  match diffs with [] -> None | d -> Some (String.concat ", " d)
