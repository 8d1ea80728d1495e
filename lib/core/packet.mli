(** Colibri packet format (§4.3, Eq. (2)).

    {v
    Packet  = Path ‖ ResInfo ‖ EERInfo ‖ Ts ‖ V_0 ‖ … ‖ V_l ‖ Payload
    Path    = (In_0, Eg_0) ‖ … ‖ (In_l, Eg_l)
    ResInfo = SrcAS ‖ ResId ‖ Bw ‖ ExpT ‖ Ver
    EERInfo = SrcHost ‖ DstHost
    v}

    One format serves all Colibri control- and data-plane traffic; the
    {!kind} flag distinguishes packets on segment reservations (where
    [EERInfo] is unused) from packets on end-to-end reservations. The
    wire encoding is fixed-width big-endian throughout, so MAC inputs
    are canonical. *)

open Colibri_types

(** Whether the packet travels on a segment reservation or an
    end-to-end reservation. *)
type kind = Seg | Eer

(** The ResInfo header block (Eq. (2c)): reservation identity,
    bandwidth, expiration, and version. *)
type res_info = {
  src_as : Ids.asn;
  res_id : Ids.res_id;
  bw : Bandwidth.t;
  exp_time : Timebase.t;
  version : int;
}

(** The EERInfo block (Eq. (2d)): end-host addresses, unique inside
    their AS. *)
type eer_info = { src_host : Ids.host; dst_host : Ids.host }

(** A parsed Colibri packet. [payload_len] stands in for the payload,
    whose contents are opaque to all Colibri processing. *)
type t = {
  kind : kind;
  path : Path.t;
  res_info : res_info;
  eer_info : eer_info option;  (** [Some] for EER data packets *)
  ts : Timebase.Ts.t;
  hvfs : bytes array;  (** hop validation fields, {!hvf_len} bytes each *)
  payload_len : int;
}

val res_key : t -> Ids.res_key
(** The packet's globally unique reservation identity
    [(SrcAS, ResId)]. *)

val hvf_len : int
(** ℓ_hvf = 4 bytes (§4.5): short static MACs are acceptable given the
    short lifetime of reservations. *)

(** {1 Canonical encodings}

    Used both on the wire and as MAC inputs. *)

val res_info_len : int
val res_info_to_bytes : res_info -> bytes
val res_info_of_bytes : bytes -> off:int -> res_info
val eer_info_len : int
val eer_info_to_bytes : eer_info -> bytes
val eer_info_of_bytes : bytes -> off:int -> eer_info

(** {1 Wire format} *)

val magic : int
val fixed_header_len : int

val header_len : hops:int -> int
(** Total header size for a path of [hops] ASes. *)

val wire_size : t -> int
(** Header plus payload: the [PktSize] that Eq. (6) authenticates, so
    an AS flooding tiny or header-only packets is still accountable
    for their full cost. *)

type parse_error =
  | Truncated
  | Bad_magic
  | Bad_kind
  | Bad_hop_count
  | Bad_payload_len  (** negative declared payload length *)
  | Bad_path of Path.error

val pp_parse_error : parse_error Fmt.t

val to_bytes : t -> bytes
(** Serialize the header (the payload is represented by its length
    only). *)

(** {1 Zero-copy wire path (DESIGN.md §8)} *)

(** Unboxed big-endian reads/writes over native [int]s, with exactly
    the semantics of the boxed [Bytes.get_int32_be]-and-convert path
    ([Int32.to_int] sign extension, [Int64.to_int] 63-bit wrap,
    [Int32.of_int]/[Int64.of_int] truncation). Used by {!View}, the
    HVF pipeline, and the gateway encoder to keep per-packet work
    allocation-free. *)
module Wire : sig
  val get16 : bytes -> int -> int
  val get32 : bytes -> int -> int
  val get64 : bytes -> int -> int
  val put16 : bytes -> int -> int -> unit
  val put32 : bytes -> int -> int -> unit
  val put64 : bytes -> int -> int -> unit
end

(** Validated cursor over a raw packet buffer.

    A [View.t] is a mutable scratch record owned by a single consumer:
    {!View.parse}, the library's only header parser, re-points it at a
    buffer and validates it; the accessors then read straight out of
    that buffer. Accessors are meaningful only after the most recent
    [parse] returned [Ok ()] and only until the buffer is next mutated
    — validation before access, always. The cursor accessors and [parse]'s accept path perform no
    allocation. *)
module View : sig
  type t

  val create : unit -> t
  (** A fresh view, initially pointing at nothing; [parse] before use. *)

  val parse : t -> bytes -> (unit, parse_error) result

  (** {2 Cursor geometry} *)

  val buffer : t -> bytes
  (** The underlying buffer of the last successful {!parse}. *)

  val kind : t -> kind
  val hops : t -> int
  val payload_len : t -> int
  val ts : t -> Timebase.Ts.t
  val res_off : t -> int
  (** Byte offset of ResInfo; EERInfo follows contiguously. *)

  val eer_off : t -> int
  val hop_off : t -> int -> int
  val hvf_off : t -> int -> int
  val header_length : t -> int
  val wire_size : t -> int

  val res_info_span : t -> int * int
  (** [(offset, length)] of the ResInfo block (allocates a pair; the
      hot path uses {!res_off} directly). *)

  (** {2 Unboxed field accessors} *)

  val src_isd : t -> int
  val src_num : t -> int
  val res_id : t -> Ids.res_id
  val version : t -> int

  val bw_bps_int : t -> int
  (** Raw i64 bandwidth field with [Int64.to_int] wrap; agrees with
      {!bw} for |bw| < 2^62 bps, i.e. for anything a gateway can emit.
      Allocation-free, unlike {!bw}. *)

  val exp_time_us : t -> int
  (** Raw i64 expiry in µs, same caveat as {!bw_bps_int}. *)

  val eer_src_addr : t -> int
  val eer_dst_addr : t -> int
  val hop_isd : t -> int -> int
  val hop_num : t -> int -> int
  val hop_ingress : t -> int -> Ids.iface
  val hop_egress : t -> int -> Ids.iface

  (** {2 Allocating conveniences (control plane / tests)} *)

  val bw : t -> Bandwidth.t
  val exp_time : t -> Timebase.t
  val hop : t -> int -> Path.hop
  val hvf : t -> int -> bytes
  val res_info : t -> res_info
  val eer_info : t -> eer_info option
end

val pp : t Fmt.t
