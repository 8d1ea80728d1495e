(** In-network replay suppression (§2.3, [32]).

    Discards copies of already-seen packets — identified by their
    unique (SrcAS, ResId, ExpT, Ts) tuple (§4.3) — with bounded
    memory: two alternating Bloom filters cover a sliding window of
    [2 × window] seconds, enough because older packets fail the
    router's freshness check anyway. False positives drop a legitimate
    packet (bounded by [fp_rate]); replays inside the window are
    always caught. *)

type t

val create : expected:int -> fp_rate:float -> window:float -> now:float -> t
(** Size the filters for [expected] packets per [window] seconds at
    false-positive rate [fp_rate]. *)

val fmix : int -> int
(** 63-bit multiply-xorshift finalizer: a bijection on [int] whose
    every output bit depends on every input bit. The building block of
    {!packet_key}, and of the OFD's sketch index. *)

val packet_key : src_isd:int -> src_num:int -> res_id:int -> ts:int -> size:int -> int
(** The filter key of a packet: its (SrcAS, ResId, Ts, PktSize)
    identifier mixed into 63 bits by an allocation-free integer hash
    (distinct identifiers collide with probability ~2^-63). Unkeyed,
    because the router checks for duplicates only after the HVF
    has verified. *)

val check_and_insert : t -> now:float -> int -> bool
(** [true] when the key is fresh (first sighting in the window), which
    also records it; [false] flags a duplicate to be discarded. *)

val memory_bytes : t -> int
val inserted_in_window : t -> int

val bits_set : t -> int
(** Bloom occupancy across both generations — the telemetry gauge the
    router exports. Observation-only: never mutates the filter. *)

val fill_ratio : t -> float
(** Fraction of the current generation's bits that are set; the
    false-positive rate grows as this approaches the design point. *)
