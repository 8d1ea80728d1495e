(** Colibri packet format (§4.3, Eq. (2)).

    {v
    Packet  = Path ‖ ResInfo ‖ EERInfo ‖ Ts ‖ V_0 ‖ … ‖ V_l ‖ Payload
    Path    = (In_0, Eg_0) ‖ … ‖ (In_l, Eg_l)
    ResInfo = SrcAS ‖ ResId ‖ Bw ‖ ExpT ‖ Ver
    EERInfo = SrcHost ‖ DstHost
    v}

    One format serves all Colibri control- and data-plane traffic; the
    [kind] flag distinguishes packets on segment reservations (where
    [EERInfo] is unused) from packets on end-to-end reservations. The
    wire encoding is fixed-width big-endian throughout, so MAC inputs
    are canonical. *)

open Colibri_types

type kind = Seg | Eer

type res_info = {
  src_as : Ids.asn;
  res_id : Ids.res_id;
  bw : Bandwidth.t;
  exp_time : Timebase.t;
  version : int;
}

type eer_info = { src_host : Ids.host; dst_host : Ids.host }

type t = {
  kind : kind;
  path : Path.t;
  res_info : res_info;
  eer_info : eer_info option; (* Some for EER data packets, None for SegR *)
  ts : Timebase.Ts.t;
  hvfs : bytes array; (* V_i, ℓ_hvf bytes each, one per on-path AS *)
  payload_len : int; (* payload carried (bytes); contents are opaque here *)
}

let res_key (p : t) : Ids.res_key =
  { src_as = p.res_info.src_as; res_id = p.res_info.res_id }

(** Hop-validation-field length ℓ_hvf (§4.5): 4 bytes, as in the
    paper; short static MACs are acceptable given the short lifetime of
    reservations. *)
let hvf_len = 4

(* -- Canonical encodings used both on the wire and as MAC inputs -- *)

let res_info_len = 32

let res_info_to_bytes (r : res_info) : bytes =
  let b = Bytes.create res_info_len in
  Bytes.blit (Ids.asn_to_bytes r.src_as) 0 b 0 8;
  Bytes.set_int32_be b 8 (Int32.of_int r.res_id);
  Bytes.set_int64_be b 12 (Int64.of_float (Float.round (Bandwidth.to_bps r.bw)));
  Bytes.set_int64_be b 20 (Int64.of_float (Float.round (r.exp_time *. 1e6)));
  Bytes.set_int32_be b 28 (Int32.of_int r.version);
  b

let res_info_of_bytes b ~off : res_info =
  {
    src_as = Ids.asn_of_bytes b ~off;
    res_id = Int32.to_int (Bytes.get_int32_be b (off + 8));
    bw = Bandwidth.of_bps (Int64.to_float (Bytes.get_int64_be b (off + 12)));
    exp_time = Int64.to_float (Bytes.get_int64_be b (off + 20)) /. 1e6;
    version = Int32.to_int (Bytes.get_int32_be b (off + 28));
  }

let eer_info_len = 8

let eer_info_to_bytes (e : eer_info) : bytes =
  let b = Bytes.create eer_info_len in
  Bytes.set_int32_be b 0 (Int32.of_int e.src_host.addr);
  Bytes.set_int32_be b 4 (Int32.of_int e.dst_host.addr);
  b

let eer_info_of_bytes b ~off : eer_info =
  {
    src_host = Ids.host (Int32.to_int (Bytes.get_int32_be b off));
    dst_host = Ids.host (Int32.to_int (Bytes.get_int32_be b (off + 4)));
  }

(* Header: magic(2) kind(1) hop_count(1) payload_len(4) ts(8)
           path(20·n) res_info(32) eer_info(8) hvfs(4·n) *)
let magic = 0xC01B
let fixed_header_len = 2 + 1 + 1 + 4 + 8

let header_len ~hops =
  fixed_header_len + (hops * Path.hop_byte_size) + res_info_len + eer_info_len
  + (hops * hvf_len)

(** Total wire size of the packet: header plus payload. This is the
    [PktSize] that Eq. (6) authenticates, so an AS flooding tiny or
    header-only packets is still accountable for their full cost. *)
let wire_size (p : t) : int = header_len ~hops:(Path.length p.path) + p.payload_len

type parse_error =
  | Truncated
  | Bad_magic
  | Bad_kind
  | Bad_hop_count
  | Bad_payload_len
  | Bad_path of Path.error

let pp_parse_error ppf = function
  | Truncated -> Fmt.string ppf "truncated packet"
  | Bad_magic -> Fmt.string ppf "bad magic"
  | Bad_kind -> Fmt.string ppf "bad kind byte"
  | Bad_hop_count -> Fmt.string ppf "bad hop count"
  | Bad_payload_len -> Fmt.string ppf "negative payload length"
  | Bad_path e -> Fmt.pf ppf "bad path: %a" Path.pp_error e

(** Serialize the header; the payload is represented by its length
    only (contents are opaque to Colibri processing). *)
let to_bytes (p : t) : bytes =
  let hops = Path.length p.path in
  let b = Bytes.make (header_len ~hops) '\000' in
  Bytes.set_uint16_be b 0 magic;
  Bytes.set_uint8 b 2 (match p.kind with Seg -> 0 | Eer -> 1);
  Bytes.set_uint8 b 3 hops;
  Bytes.set_int32_be b 4 (Int32.of_int p.payload_len);
  Bytes.set_int64_be b 8 (Int64.of_int (Timebase.Ts.to_int p.ts));
  let off = fixed_header_len in
  Bytes.blit (Path.to_bytes p.path) 0 b off (hops * Path.hop_byte_size);
  let off = off + (hops * Path.hop_byte_size) in
  Bytes.blit (res_info_to_bytes p.res_info) 0 b off res_info_len;
  let off = off + res_info_len in
  (match p.eer_info with
  | Some e -> Bytes.blit (eer_info_to_bytes e) 0 b off eer_info_len
  | None -> ());
  let off = off + eer_info_len in
  Array.iteri (fun i v -> Bytes.blit v 0 b (off + (i * hvf_len)) hvf_len) p.hvfs;
  b

(** {2 Unboxed big-endian accessors}

    [Bytes.get_int32_be]/[get_int64_be] return boxed values, and the
    [Int32]/[Int64] conversions box again — each read costs minor-heap
    words. These helpers produce/consume native [int]s with the exact
    semantics of the boxed path ([Int32.to_int] sign extension,
    [Int64.to_int] wrap-around, [Int32.of_int]/[Int64.of_int]
    truncation), which the differential tests check, so {!View} and
    the routers can read headers without allocating. *)
module Wire = struct
  (* hot-path *)
  let get16 (b : bytes) (off : int) : int =
    (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

  (* Sign-extending: agrees with [Int32.to_int (Bytes.get_int32_be b off)]. *)
  (* hot-path *)
  let get32 (b : bytes) (off : int) : int =
    let v =
      (Char.code (Bytes.get b off) lsl 24)
      lor (Char.code (Bytes.get b (off + 1)) lsl 16)
      lor (Char.code (Bytes.get b (off + 2)) lsl 8)
      lor Char.code (Bytes.get b (off + 3))
    in
    (v lxor 0x80000000) - 0x80000000

  (* 63-bit wrap: agrees with [Int64.to_int (Bytes.get_int64_be b off)]. *)
  (* hot-path *)
  let get64 (b : bytes) (off : int) : int =
    (Char.code (Bytes.get b off) lsl 56)
    lor (Char.code (Bytes.get b (off + 1)) lsl 48)
    lor (Char.code (Bytes.get b (off + 2)) lsl 40)
    lor (Char.code (Bytes.get b (off + 3)) lsl 32)
    lor (Char.code (Bytes.get b (off + 4)) lsl 24)
    lor (Char.code (Bytes.get b (off + 5)) lsl 16)
    lor (Char.code (Bytes.get b (off + 6)) lsl 8)
    lor Char.code (Bytes.get b (off + 7))

  (* hot-path *)
  let put16 (b : bytes) (off : int) (v : int) =
    Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 1) (Char.chr (v land 0xff))

  (* Low-32 truncation: agrees with [Bytes.set_int32_be b off (Int32.of_int v)]. *)
  (* hot-path *)
  let put32 (b : bytes) (off : int) (v : int) =
    Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (v land 0xff))

  (* Sign extension: agrees with [Bytes.set_int64_be b off (Int64.of_int v)]. *)
  (* hot-path *)
  let put64 (b : bytes) (off : int) (v : int) =
    Bytes.set b off (Char.chr ((v asr 56) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v asr 48) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v asr 40) land 0xff));
    Bytes.set b (off + 3) (Char.chr ((v asr 32) land 0xff));
    Bytes.set b (off + 4) (Char.chr ((v asr 24) land 0xff));
    Bytes.set b (off + 5) (Char.chr ((v asr 16) land 0xff));
    Bytes.set b (off + 6) (Char.chr ((v asr 8) land 0xff));
    Bytes.set b (off + 7) (Char.chr (v land 0xff))
end

(* Structural path validation straight off the wire, mirroring
   [Path.validate] on the parsed hop list check for check (same error,
   same order) without materializing the list. Errors carry AS records,
   but those arms are reject paths; the accept path is allocation-free. *)
(* Does AS (isd, num) already appear among hops [j, i)? Top-level so no
   closure is built per hop. *)
(* hot-path *)
let rec hop_as_repeated (b : bytes) ~(isd : int) ~(num : int) (j : int) (i : int)
    : bool =
  j < i
  && ((let o = fixed_header_len + (j * Path.hop_byte_size) in
       Wire.get32 b o = isd && Wire.get32 b (o + 4) = num)
     || hop_as_repeated b ~isd ~num (j + 1) i)

(* hot-path *)
let rec validate_path_hop (b : bytes) ~(hops : int) (i : int) :
    (unit, Path.error) result =
  if i >= hops then Ok ()
  else begin
    let off = fixed_header_len + (i * Path.hop_byte_size) in
    let isd = Wire.get32 b off and num = Wire.get32 b (off + 4) in
    if hop_as_repeated b ~isd ~num 0 i then Error (Path.Repeated_as (Ids.asn ~isd ~num))
    else begin
      let ingress = Wire.get32 b (off + 8) and egress = Wire.get32 b (off + 12) in
      if
        (i = 0 || ingress <> Ids.local_iface)
        && (i = hops - 1 || egress <> Ids.local_iface)
      then validate_path_hop b ~hops (i + 1)
      else Error (Path.Zero_transit_iface (Ids.asn ~isd ~num))
    end
  end

(* hot-path *)
let validate_path_raw (b : bytes) ~(hops : int) : (unit, Path.error) result =
  if Wire.get32 b (fixed_header_len + 8) <> Ids.local_iface then
    Error Path.Bad_source_ingress
  else if
    Wire.get32 b (fixed_header_len + ((hops - 1) * Path.hop_byte_size) + 12)
    <> Ids.local_iface
  then Error Path.Bad_destination_egress
  else validate_path_hop b ~hops 0

(** Validated cursor over a raw packet buffer (DESIGN.md §8).

    A [View.t] is a small mutable scratch record owned by one consumer
    (one router instance, one test harness): {!parse} re-points it at a
    buffer and re-validates, and the accessors then read straight out
    of that buffer with no per-packet allocation. The contract is
    strict validation-before-access: accessors are meaningful only
    after the most recent {!parse} on this view returned [Ok ()], and
    only until the buffer is next mutated or the view re-parsed.
    The differential QCheck suite holds {!parse} to a record-building
    reference decoder kept with the tests: same verdict, same
    fields. *)
module View = struct
  type t = {
    mutable buf : bytes;
    mutable vkind : kind;
    mutable vhops : int;
    mutable vpayload_len : int;
    mutable vts : int;
    mutable vres_off : int;
  }

  let create () =
    {
      buf = Bytes.empty;
      vkind = Seg;
      vhops = 0;
      vpayload_len = 0;
      vts = 0;
      vres_off = 0;
    }

  (* hot-path *)
  let parse (v : t) (b : bytes) : (unit, parse_error) result =
    let len = Bytes.length b in
    if len < fixed_header_len then Error Truncated
    else if Wire.get16 b 0 <> magic then Error Bad_magic
    else begin
      match Bytes.get_uint8 b 2 with
      | (0 | 1) as kind_byte ->
          let hops = Bytes.get_uint8 b 3 in
          if hops < 1 then Error Bad_hop_count
          else if len < header_len ~hops then Error Truncated
          else begin
            let payload_len = Wire.get32 b 4 in
            if payload_len < 0 then Error Bad_payload_len
            else begin
              match validate_path_raw b ~hops with
              | Error e -> Error (Bad_path e)
              | Ok () ->
                  v.buf <- b;
                  v.vkind <- (if kind_byte = 0 then Seg else Eer);
                  v.vhops <- hops;
                  v.vpayload_len <- payload_len;
                  v.vts <- Wire.get64 b 8;
                  v.vres_off <-
                    fixed_header_len + (hops * Path.hop_byte_size);
                  Ok ()
            end
          end
      | _ -> Error Bad_kind
    end

  (* -- Cursor geometry -- *)

  let buffer (v : t) = v.buf
  let kind (v : t) = v.vkind
  let hops (v : t) = v.vhops
  let payload_len (v : t) = v.vpayload_len
  let ts (v : t) : Timebase.Ts.t = Timebase.Ts.of_int v.vts
  let res_off (v : t) = v.vres_off
  let eer_off (v : t) = v.vres_off + res_info_len
  let hop_off (_ : t) (i : int) = fixed_header_len + (i * Path.hop_byte_size)
  let hvf_off (v : t) (i : int) = v.vres_off + res_info_len + eer_info_len + (i * hvf_len)
  let header_length (v : t) = header_len ~hops:v.vhops
  let wire_size (v : t) = header_len ~hops:v.vhops + v.vpayload_len

  let res_info_span (v : t) : int * int = (v.vres_off, res_info_len)

  (* -- Field accessors (unboxed; same conversions as the record
     codecs [res_info_of_bytes] / [eer_info_of_bytes]) -- *)

  let src_isd (v : t) = Wire.get32 v.buf v.vres_off
  let src_num (v : t) = Wire.get32 v.buf (v.vres_off + 4)
  let res_id (v : t) : Ids.res_id = Wire.get32 v.buf (v.vres_off + 8)
  let version (v : t) = Wire.get32 v.buf (v.vres_off + 28)

  (* Raw i64 field reads with [Int64.to_int] wrap — allocation-free.
     They agree with the exact [Int64.to_float]-based accessors below
     for every |value| < 2^62, i.e. for anything a gateway can emit;
     the routers use these, the differential tests use the exact ones. *)
  let bw_bps_int (v : t) = Wire.get64 v.buf (v.vres_off + 12)
  let exp_time_us (v : t) = Wire.get64 v.buf (v.vres_off + 20)

  let bw (v : t) : Bandwidth.t =
    Bandwidth.of_bps (Int64.to_float (Bytes.get_int64_be v.buf (v.vres_off + 12)))

  let exp_time (v : t) : Timebase.t =
    Int64.to_float (Bytes.get_int64_be v.buf (v.vres_off + 20)) /. 1e6

  let eer_src_addr (v : t) = Wire.get32 v.buf (eer_off v)
  let eer_dst_addr (v : t) = Wire.get32 v.buf (eer_off v + 4)

  let hop_isd (v : t) (i : int) = Wire.get32 v.buf (hop_off v i)
  let hop_num (v : t) (i : int) = Wire.get32 v.buf (hop_off v i + 4)
  let hop_ingress (v : t) (i : int) : Ids.iface = Wire.get32 v.buf (hop_off v i + 8)
  let hop_egress (v : t) (i : int) : Ids.iface = Wire.get32 v.buf (hop_off v i + 12)

  (* -- Allocating conveniences for the control plane and tests -- *)

  let hop (v : t) (i : int) : Path.hop = Path.hop_of_bytes v.buf ~off:(hop_off v i)
  let hvf (v : t) (i : int) : bytes = Bytes.sub v.buf (hvf_off v i) hvf_len
  let res_info (v : t) : res_info = res_info_of_bytes v.buf ~off:v.vres_off

  let eer_info (v : t) : eer_info option =
    match v.vkind with
    | Seg -> None
    | Eer -> Some (eer_info_of_bytes v.buf ~off:(eer_off v))
end

let pp ppf (p : t) =
  Fmt.pf ppf "@[<h>%s %a bw=%a exp=%a v%d %a len=%d@]"
    (match p.kind with Seg -> "SEG" | Eer -> "EER")
    Ids.pp_res_key (res_key p) Bandwidth.pp p.res_info.bw Timebase.pp
    p.res_info.exp_time p.res_info.version Timebase.Ts.pp p.ts p.payload_len
