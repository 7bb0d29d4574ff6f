(* Host clocks, robust statistics, the span accountant and the result
   line. Everything here is the benchmark's own machinery; none of it
   is part of the program under test. *)

(* CLOCK_MONOTONIC in nanoseconds (bechamel's stub: no allocation). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of nothing"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: always one of the samples. *)
let nearest_rank q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile of nothing";
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Host time at reference speed.

   The machines this runs on are shared, and how fast they run this
   program drifts by tens of percent within seconds as neighbours load
   the memory system; a median over passes cannot remove a drift that
   lasts as long as the run. So end-to-end times are measured against a
   fixed reference job in the benchmark's own code — sequential writes
   and hashing over 1 MiB, memory traffic like the program's, with no
   allocation so that it cannot shift the program's garbage collection
   — run every [slice_s] seconds from a timer signal while the program
   works. Each slice of work is
   rescaled by [reference_nominal_s / r], r the mean of the reference
   runs before and after it: the host time the work takes when the
   reference runs at its nominal speed. Time inside the reference never
   counts as work, and the reference never changes with the program. *)

let reference_nominal_s = 0.002
let slice_s = 0.05
let reference_buf = Bytes.make (1 lsl 20) 'r'

let reference_s () =
  let t0 = now_ns () in
  let b = reference_buf and x = ref 0 in
  for pass = 0 to 2 do
    for i = 0 to (Bytes.length b / 8) - 1 do
      Bytes.set_int64_le b (i * 8) (Int64.of_int (i + pass + !x))
    done;
    for i = 0 to (Bytes.length b / 8) - 1 do
      x := (!x * 31) lxor Int64.to_int (Bytes.get_int64_le b (i * 8))
    done
  done;
  ignore (Sys.opaque_identity !x : int);
  seconds_since t0

(* The timer's handler runs at any allocation of the main code, so the
   meter's lists are only touched with [busy] set; a tick that arrives
   meanwhile is deferred to the end of the critical section. *)
type meter = {
  mutable last_ref : float;
  mutable mark : int; (* start of the current slice *)
  mutable current : float ref option; (* the operation being measured *)
  mutable pending : (float ref * float) list; (* raw seconds awaiting the next reference *)
  mutable busy : bool;
  mutable deferred : bool;
}

let tick m =
  if m.busy then m.deferred <- true
  else begin
    m.busy <- true;
    let t = now_ns () in
    (match m.current with
    | Some c -> m.pending <- (c, float_of_int (t - m.mark) /. 1e9) :: m.pending
    | None -> ());
    let r = reference_s () in
    let scale = reference_nominal_s /. ((m.last_ref +. r) /. 2.) in
    List.iter (fun (c, s) -> c := !c +. (s *. scale)) m.pending;
    m.pending <- [];
    m.last_ref <- r;
    m.mark <- now_ns ();
    m.deferred <- false;
    m.busy <- false
  end

let set_timer s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

(* Start a meter: with [timer] (the default) the reference runs every
   [slice_s] until [stop]; without, only at [flush]. *)
let meter ?(timer = true) () =
  let m =
    {
      last_ref = reference_s ();
      mark = now_ns ();
      current = None;
      pending = [];
      busy = false;
      deferred = false;
    }
  in
  if timer then begin
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> tick m));
    set_timer slice_s
  end;
  m

let stop m =
  set_timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  tick m

(* Cells measured so far hold their final values after [flush]. *)
let flush = tick

(* [measure m f] runs [f]; the cell it returns holds f's time at
   reference speed after the next [flush]. *)
let measure m f =
  let c = ref 0. in
  m.mark <- now_ns ();
  m.current <- Some c;
  let r = f () in
  m.current <- None;
  let slice = (c, float_of_int (now_ns () - m.mark) /. 1e9) in
  m.busy <- true;
  m.pending <- slice :: m.pending;
  m.busy <- false;
  if m.deferred then tick m;
  (r, c)

(* VmHWM: the peak resident set of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find (String.starts_with ~prefix:"VmHWM:")
  |> fun line -> Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

(* ------------------------------------------------------------------ *)
(* Span accounting for the traced replay.

   Exactly one bucket is current at any instant. [enter] and [leave]
   read the clock once and charge the interval since the previous
   reading to the bucket that was current during it, so the buckets
   partition the replay's wall time: their sum is the time from [spans]
   to the last clock reading, whatever the nesting. A span's bucket collects
   its self time; the time of spans opened inside it goes to theirs.
   Bucket 0 is the replay's own bookkeeping, reported as the residual. *)

type spans = {
  names : (string, int) Hashtbl.t;
  mutable ns : int array;
  mutable calls : int array;
  mutable cur : int;
  mutable last : int;
  mutable stack : int list;
}

let residual = 0

let spans () =
  {
    names = Hashtbl.create 64;
    ns = [| 0 |];
    calls = [| 0 |];
    cur = residual;
    last = now_ns ();
    stack = [];
  }

let bucket sp name =
  match Hashtbl.find_opt sp.names name with
  | Some b -> b
  | None ->
    let b = Array.length sp.ns in
    Hashtbl.replace sp.names name b;
    sp.ns <- Array.append sp.ns [| 0 |];
    sp.calls <- Array.append sp.calls [| 0 |];
    b

let charge sp =
  let t = now_ns () in
  sp.ns.(sp.cur) <- sp.ns.(sp.cur) + (t - sp.last);
  sp.last <- t

let enter sp b =
  charge sp;
  sp.stack <- sp.cur :: sp.stack;
  sp.cur <- b;
  sp.calls.(b) <- sp.calls.(b) + 1

let leave sp =
  charge sp;
  match sp.stack with
  | prev :: rest ->
    sp.cur <- prev;
    sp.stack <- rest
  | [] -> invalid_arg "Util.leave: no open span"

(* [span sp b f] runs [f] as one call of bucket [b]. *)
let span sp b f =
  enter sp b;
  match f () with
  | r ->
    leave sp;
    r
  | exception e ->
    leave sp;
    raise e

let ns_of sp name = match Hashtbl.find_opt sp.names name with Some b -> sp.ns.(b) | None -> 0
let calls_of sp name = match Hashtbl.find_opt sp.names name with Some b -> sp.calls.(b) | None -> 0

(* Mean nanoseconds per call of a bucket; 0 when the replay never
   called that layer. *)
let ns_per_call sp name =
  match calls_of sp name with 0 -> 0. | n -> float_of_int (ns_of sp name) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* The result line *)

type metric = string * float * string

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)
