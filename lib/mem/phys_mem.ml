(* Page-granular copy-on-write physical memory.

   RAM is an array of page-sized [Bytes.t] buffers. [copy] shares every
   page between the two instances (O(#pages) pointer copies, no byte is
   moved); the first store into a shared page faults in a private copy
   of that page only. Pages that were never written since [create] all
   alias one immutable all-zero page, so a fresh machine costs one page
   of backing store regardless of its RAM size.

   The ownership protocol: [owned.(i)] is true iff [pages.(i)] is
   referenced by this instance alone and may be mutated in place.
   [copy] clears the flag on both sides — a page can only regain
   ownership by being re-copied on the next write. This over-copies in
   the rare case where every other sharer has already faulted the page
   in, but it never aliases a mutation.

   Each page also carries its two-lane {!Uldma_util.Fp128.digest},
   kept current by every write path (see [write_span]). A shared page
   is immutable, so [copy] just copies the lane arrays, and the state
   key never hashes a page. *)

module Iset = Set.Make (Int)

type t = {
  size : int;
  pages : Bytes.t array; (* length size / Layout.page_size *)
  owned : bool array; (* owned.(i): pages.(i) is private to this t *)
  mutable touched : Iset.t;
      (* indices of pages ever written since [create], inherited across
         [copy]. A page outside this set still aliases [zero_page], so
         state hashing only needs to visit [touched] — O(dirtied), not
         O(RAM). Persistent set: sharing it with a copy is safe because
         each side grows its own version. *)
  dg_lo : int array; (* dg_lo/hi.(i): Fp128.digest of pages.(i), always current *)
  dg_hi : int array;
}

exception Fault of int

(* The distinguished all-zero page. Shared by every never-written page
   of every instance; the write path never mutates a non-owned page, so
   it stays zero forever. *)
let zero_page = Bytes.make Layout.page_size '\000'

let create ~size =
  if size <= 0 || not (Layout.is_page_aligned size) then
    invalid_arg (Printf.sprintf "Phys_mem.create: size %d not page-aligned" size);
  if size > Layout.max_ram_size then
    invalid_arg "Phys_mem.create: size exceeds Layout.max_ram_size";
  let n = size lsr Layout.page_shift in
  {
    size;
    pages = Array.make n zero_page;
    owned = Array.make n false;
    touched = Iset.empty;
    (* the zero page digests to (0, 0) *)
    dg_lo = Array.make n 0;
    dg_hi = Array.make n 0;
  }

let size t = t.size

let copy t =
  Array.fill t.owned 0 (Array.length t.owned) false;
  {
    size = t.size;
    pages = Array.copy t.pages;
    owned = Array.make (Array.length t.pages) false;
    touched = t.touched;
    dg_lo = Array.copy t.dg_lo;
    dg_hi = Array.copy t.dg_hi;
  }

let page_count t = Array.length t.pages

let owned_pages t =
  let n = ref 0 in
  Array.iter (fun o -> if o then incr n) t.owned;
  !n

(* A writable view of page [i]: fault in a private copy first if the
   page is (possibly) shared. Owned implies touched ([owned.(i)] is only
   ever set below, right after the [Iset.add]), so an already-owned page
   skips the persistent-set insertion entirely. *)
let page_rw t i =
  if t.owned.(i) then t.pages.(i)
  else begin
    t.touched <- Iset.add i t.touched;
    let fresh = Bytes.copy t.pages.(i) in
    t.pages.(i) <- fresh;
    t.owned.(i) <- true;
    fresh
  end

(* Add [sign] (+1 or -1) times the digest terms of every word that
   overlaps bytes [off, off+len) of page [i] to the page's lanes. *)
let adjust_digest t i page off len sign =
  let a = ref t.dg_lo.(i) and b = ref t.dg_hi.(i) in
  let w = ref (off land lnot (Layout.word_size - 1)) in
  while !w < off + len do
    a := !a + (sign * Uldma_util.Fp128.word_term_a page !w);
    b := !b + (sign * Uldma_util.Fp128.word_term_b page !w);
    w := !w + Layout.word_size
  done;
  t.dg_lo.(i) <- !a;
  t.dg_hi.(i) <- !b

(* Apply [write], which changes only bytes [off, off+len), to a
   writable view of page [i]. The covered words' old digest terms come
   out before it and their new terms go in after it, so the lanes track
   the content in O(words written). *)
let write_span t i off len write =
  let page = page_rw t i in
  adjust_digest t i page off len (-1);
  write page;
  adjust_digest t i page off len 1

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then raise (Fault addr)

let check_word t addr =
  check t addr Layout.word_size;
  if not (Layout.is_word_aligned addr) then raise (Fault addr)

(* Words never straddle a page: the page size is a multiple of the word
   size and word accesses are aligned. *)
let load_word t addr =
  check_word t addr;
  Int64.to_int
    (Bytes.get_int64_le t.pages.(addr lsr Layout.page_shift) (addr land (Layout.page_size - 1)))

let store_word t addr value =
  check_word t addr;
  let off = addr land (Layout.page_size - 1) in
  write_span t (addr lsr Layout.page_shift) off Layout.word_size (fun page ->
      Bytes.set_int64_le page off (Int64.of_int value))

let load_byte t addr =
  check t addr 1;
  Char.code (Bytes.get t.pages.(addr lsr Layout.page_shift) (addr land (Layout.page_size - 1)))

let store_byte t addr value =
  check t addr 1;
  let off = addr land (Layout.page_size - 1) in
  write_span t (addr lsr Layout.page_shift) off 1 (fun page ->
      Bytes.set page off (Char.chr (value land 0xff)))

(* Apply [f page_index offset_in_page position_in_range span_len] to
   each maximal single-page span of [addr, addr+len). Bounds must have
   been checked already. *)
let iter_spans addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let i = a lsr Layout.page_shift in
    let off = a land (Layout.page_size - 1) in
    let span = min (len - !pos) (Layout.page_size - off) in
    f i off !pos span;
    pos := !pos + span
  done

let write_bytes t ~addr data =
  let len = Bytes.length data in
  check t addr len;
  iter_spans addr len (fun i off pos span ->
      write_span t i off span (fun page -> Bytes.blit data pos page off span))

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len > 0 && src <> dst then begin
    (* Stage through a scratch buffer: overlapping ranges then behave
       like memmove, and page boundaries of src and dst need not line
       up. *)
    let tmp = Bytes.create len in
    iter_spans src len (fun i off pos span -> Bytes.blit t.pages.(i) off tmp pos span);
    write_bytes t ~addr:dst tmp
  end

let fill t ~addr ~len ~byte =
  check t addr len;
  let c = Char.chr (byte land 0xff) in
  iter_spans addr len (fun i off _pos span ->
      if c = '\000' && off = 0 && span = Layout.page_size then begin
        (* Zeroing a whole page re-shares the canonical zero page
           instead of dirtying a private one (frame recycling stays
           cheap under copy-on-write). *)
        t.pages.(i) <- zero_page;
        t.owned.(i) <- false;
        t.dg_lo.(i) <- 0;
        t.dg_hi.(i) <- 0;
        t.touched <- Iset.add i t.touched
      end
      else write_span t i off span (fun page -> Bytes.fill page off span c))

let checksum t ~addr ~len =
  check t addr len;
  let acc = ref 0 in
  iter_spans addr len (fun i off _pos span ->
      let page = t.pages.(i) in
      for j = off to off + span - 1 do
        let b = Char.code (Bytes.get page j) in
        acc := ((!acc * 131) + b) land max_int
      done);
  !acc

let page_digest t i = (t.dg_lo.(i), t.dg_hi.(i))

(* The write paths keep every digest current, so no page is ever hashed
   whole. *)
let digest_fills _ = 0

let touched_count t = Iset.cardinal t.touched

let iter_touched t f = Iset.iter (fun i -> f i t.pages.(i)) t.touched

let iter_diverged t ~baseline f =
  if baseline.size <> t.size then invalid_arg "Phys_mem.iter_diverged: size mismatch";
  Iset.iter (fun i -> if t.pages.(i) != baseline.pages.(i) then f i t.pages.(i)) t.touched

let equal_range a b ~addr ~len =
  check a addr len;
  check b addr len;
  let equal = ref true in
  iter_spans addr len (fun i off _pos span ->
      if !equal then begin
        let pa = a.pages.(i) and pb = b.pages.(i) in
        if pa != pb then
          (* physically shared spans are equal for free *)
          let j = ref off in
          while !equal && !j < off + span do
            if Bytes.get pa !j <> Bytes.get pb !j then equal := false;
            incr j
          done
      end);
  !equal
