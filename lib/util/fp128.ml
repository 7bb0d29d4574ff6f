(* Streaming two-lane 126-bit fingerprint.

   Each lane is a native 63-bit OCaml int updated with an independent
   multiply-xor mix (FNV/xxhash-style), so the streaming hot path never
   allocates: no Int64 boxing, no intermediate buffer.  The two lanes use
   different primes and different injection functions, so a collision
   requires both 63-bit lanes to collide simultaneously (~2^-126 for
   adversary-free inputs; see DESIGN.md for the collision argument and
   the paranoid mode that removes even that risk).

   Byte feeding is lossless: bytes are packed three-uint16-per-word into
   48-bit words (6-byte strides), because [Int64.to_int] of a raw 64-bit
   load would silently drop bit 63 on a tagged-int target. *)

type t = {
  mutable a : int;
  mutable b : int;
  mutable fed : int; (* bytes/words accounted so far, for bytes-hashed stats *)
}

(* Lane seeds: FNV-1a 64-bit offset basis truncated to 62 bits, and a
   splitmix64 increment truncated likewise.  Any odd constants work; we
   just need the lanes decorrelated. *)
let seed_a = 0xbf29ce484222325
let seed_b = 0x1e3779b97f4a7c15

let prime_a = 0x100000001b3 (* FNV 64-bit prime *)
let prime_b = 0x2545f4914f6cdd1d (* splitmix64 mix constant, < 2^62 *)
let prime_c = 0x369dea0f31a53f85 (* xorshift1024* constant, < 2^62 *)

let[@inline] mix_a h v = (h lxor v) * prime_a

let[@inline] mix_b h v = ((h + (v * 0x9e3779b97f4a7c1)) * prime_b) lxor (h lsr 31)

let create () = { a = seed_a; b = seed_b; fed = 0 }

let reset t =
  t.a <- seed_a;
  t.b <- seed_b;
  t.fed <- 0

let fed t = t.fed

let[@inline] add_int t v =
  t.a <- mix_a t.a v;
  t.b <- mix_b t.b v;
  t.fed <- t.fed + 8

(* Tag characters (section markers in the canonical state walk) are fed
   with the sign bit set so they can never alias a small non-negative
   value fed through [add_int]. *)
let[@inline] add_tag t c =
  let v = Char.code c lor min_int in
  t.a <- mix_a t.a v;
  t.b <- mix_b t.b v;
  t.fed <- t.fed + 1

(* Feed [len] raw bytes of [b] starting at [off], packed losslessly into
   48-bit words.  The caller is responsible for length-prefixing when the
   byte run has variable length. *)
let feed_raw t b off len =
  let a = ref t.a and bb = ref t.b in
  let i = ref off in
  let stop = off + len in
  while !i + 6 <= stop do
    let w =
      Bytes.get_uint16_le b !i
      lor (Bytes.get_uint16_le b (!i + 2) lsl 16)
      lor (Bytes.get_uint16_le b (!i + 4) lsl 32)
    in
    a := mix_a !a w;
    bb := mix_b !bb w;
    i := !i + 6
  done;
  while !i < stop do
    let w = Char.code (Bytes.unsafe_get b !i) in
    a := mix_a !a w;
    bb := mix_b !bb w;
    incr i
  done;
  t.a <- !a;
  t.b <- !bb;
  t.fed <- t.fed + len

let add_bytes t b =
  let len = Bytes.length b in
  add_int t len;
  feed_raw t b 0 len

let add_string t s =
  add_bytes t (Bytes.unsafe_of_string s)

(* Murmur3-style finalizer: avalanche each lane so that low-entropy
   tails (e.g. a single differing register) spread across all bits. *)
let[@inline] fmix h =
  let h = h lxor (h lsr 33) in
  let h = h * prime_b in
  let h = h lxor (h lsr 29) in
  let h = h * prime_c in
  h lxor (h lsr 32)

let lanes t = (fmix (t.a lxor t.fed), fmix (t.b + (t.fed * prime_a)))

let key_of_lanes lo hi =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int lo);
  Bytes.set_int64_le b 8 (Int64.of_int hi);
  Bytes.unsafe_to_string b

let key t =
  let lo, hi = lanes t in
  key_of_lanes lo hi

(* Position-keyed additive page digest. A block digests to the sum, on
   each lane, of one term per aligned 8-byte word. Lane a's term is the
   word's low 63 bits times an odd multiplier keyed by the word's byte
   offset, avalanched; lane b's is the same for the word's high 63 bits
   with its own offset key and splitmix64-style constants, so the lanes
   are decorrelated and together see all 64 bits. Both steps are
   bijections, so for each offset a term is 0 exactly for a zero word
   (an all-zero block digests to (0, 0)) and a word that changes always
   changes at least one of its two terms. Because the digest is a sum,
   a writer keeps it current by subtracting the old terms of the words
   it covers and adding the new ones: O(words written), never a
   rehash. *)

let offset_a = 0x2f1b4a3c58d7e693
let offset_b = 0x1d8e4e27c47d124f
let avalanche_b1 = 0x3f58476d1ce4e5b9 (* splitmix64 constants, < 2^62 *)
let avalanche_b2 = 0x14d049bb133111eb

let[@inline] fmix_b h =
  let h = h lxor (h lsr 30) in
  let h = h * avalanche_b1 in
  let h = h lxor (h lsr 27) in
  let h = h * avalanche_b2 in
  h lxor (h lsr 31)

(* [off] is a multiple of 8, so distinct offsets get distinct odd keys *)
let[@inline] word_term_a b off =
  fmix (Int64.to_int (Bytes.get_int64_le b off) * ((off * offset_a) lor 1))

let[@inline] word_term_b b off =
  fmix_b
    (Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le b off) 1)
    * ((off * offset_b) lor 1))

let digest b =
  let a = ref 0 and bb = ref 0 in
  let off = ref 0 in
  while !off + 8 <= Bytes.length b do
    a := !a + word_term_a b !off;
    bb := !bb + word_term_b b !off;
    off := !off + 8
  done;
  (!a, !bb)
