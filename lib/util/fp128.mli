(** Streaming two-lane 126-bit fingerprint.

    Allocation-free on the hot path: both lanes are native 63-bit ints
    mixed word-at-a-time.  Used by [Kernel.state_key] to fingerprint
    canonical state walks without materialising the encoding string, and
    by [Phys_mem] to digest pages ({!digest}, kept current on every
    write). Streamed bytes are packed into 48-bit words so no bit is
    dropped by int conversion. *)

type t

val create : unit -> t
val reset : t -> unit

val add_int : t -> int -> unit
(** Feed one integer word. *)

val add_tag : t -> char -> unit
(** Feed a section-tag character, domain-separated from [add_int] values
    (the sign bit is set), so a tag can never alias a small value. *)

val add_string : t -> string -> unit
(** Feed a variable-length string, length-prefixed for injectivity. *)

val add_bytes : t -> bytes -> unit
(** Feed a variable-length byte run, length-prefixed for injectivity. *)

val fed : t -> int
(** Bytes accounted so far (ints count as 8, tags as 1, strings as
    8 + length).  Used for [bytes_hashed] statistics. *)

val lanes : t -> int * int
(** Finalised (avalanched) lane values.  Does not mutate [t]; more input
    may be fed afterwards. *)

val key : t -> string
(** 16-byte packed key of the finalised lanes — suitable as a compact
    hashtable key. *)

val key_of_lanes : int -> int -> string
(** Pack two already-finalised lanes into a 16-byte key. *)

val digest : bytes -> int * int
(** Position-keyed additive digest of a block of whole 8-byte words
    (e.g. a physical page; a trailing partial word is ignored). Each
    lane is the sum, modulo 2^63, of one term per word that mixes the
    word with its byte offset; a zero word contributes 0, so an
    all-zero block digests to [(0, 0)]. Equal contents give equal
    digests, and a block whose words change can keep its digest
    current by subtracting the changed words' old terms
    ({!word_term_a}, {!word_term_b}) and adding their new ones. The
    result feeds back into a stream via {!add_int} on both lanes. *)

val word_term_a : bytes -> int -> int
(** [word_term_a b off] is lane a's term of the 8-byte word at byte
    offset [off] of [b] ([off] a multiple of 8): a mix of the word's low
    63 bits keyed by [off], bijective for each [off], and 0 for a zero
    word. *)

val word_term_b : bytes -> int -> int
(** Lane b's term of the same word: an independent mix of its high 63
    bits, likewise bijective for each [off] and 0 for a zero word. A
    word that changes always changes at least one of its two terms. *)
