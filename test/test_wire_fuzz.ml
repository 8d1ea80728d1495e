(** Byte-mutation fuzzer for the wire path (DESIGN.md §13).

    The wiretaint analyzer proves no wire-derived value reaches an
    index/allocation/ledger sink unguarded; this suite attacks the
    same surface dynamically. Each property starts from a valid
    serialized packet (or raw garbage), corrupts it — multi-byte
    overwrites, structure splices, truncation/extension — and asserts
    the two independent decoders, the record parser [Packet_ref.of_bytes]
    and the zero-copy cursor [Packet.View.parse], return identical
    typed verdicts and never raise. [test_view.ml] pins single
    bit-flips; the generators here make coarser, structure-crossing
    edits (hop counts vs. actual length, payload_len vs. buffer size,
    blocks copied over each other). *)

open Colibri

(* Shared cursor, re-pointed by every [parse] — exactly how a router
   reuses one view across packets. *)
let view = Packet.View.create ()

(* The property: both decoders terminate without raising and agree on
   the typed verdict. On double-accept the record decode must also
   round-trip through the view's geometry (cheap sanity, not the full
   field-equality of test_view). *)
let verdicts_agree (raw : bytes) : bool =
  match (Packet_ref.of_bytes raw, Packet.View.parse view raw) with
  | Ok q, Ok () ->
      Packet.View.wire_size view = Packet.wire_size q
      && Packet.View.hops view = List.length q.path
  | Error e1, Error e2 -> e1 = e2
  | Ok _, Error _ | Error _, Ok () -> false
  | exception _ -> false

let valid_frame_gen =
  QCheck2.Gen.map Packet.to_bytes Test_packet.packet_gen

(* 1-8 byte overwrites at arbitrary offsets. *)
let overwrite_gen =
  QCheck2.Gen.(
    let* raw = valid_frame_gen in
    let n = Bytes.length raw in
    let* writes = list_size (1 -- 8) (pair (0 -- (n - 1)) (0 -- 255)) in
    let b = Bytes.copy raw in
    List.iter (fun (off, v) -> Bytes.set_uint8 b off v) writes;
    return b)

(* Copy one random span of the frame over another: moves whole header
   blocks (hops over ResInfo, ResInfo over HVFs, ...) while keeping
   every byte individually plausible. *)
let splice_gen =
  QCheck2.Gen.(
    let* raw = valid_frame_gen in
    let n = Bytes.length raw in
    let* src = 0 -- (n - 1) in
    let* dst = 0 -- (n - 1) in
    let* len0 = 0 -- n in
    let len = min len0 (n - max src dst) in
    let b = Bytes.copy raw in
    Bytes.blit raw src b dst len;
    return b)

(* Truncate or extend with junk: the declared hop count and
   payload_len no longer match the buffer they arrived in. *)
let resize_gen =
  QCheck2.Gen.(
    let* raw = valid_frame_gen in
    let n = Bytes.length raw in
    let* m = 0 -- (n + 64) in
    let* fill = 0 -- 255 in
    let b = Bytes.make m (Char.chr fill) in
    Bytes.blit raw 0 b 0 (min n m);
    return b)

(* No valid skeleton at all. *)
let garbage_gen =
  QCheck2.Gen.(
    let* n = 0 -- 320 in
    let* cells = list_size (return n) (0 -- 255) in
    let b = Bytes.create n in
    List.iteri (fun i v -> Bytes.set_uint8 b i v) cells;
    return b)

let prop name gen =
  QCheck2.Test.make ~name ~count:1000 gen verdicts_agree

let suite =
  [
    QCheck_alcotest.to_alcotest
      (prop "fuzz: multi-byte overwrites, same verdict, no raise" overwrite_gen);
    QCheck_alcotest.to_alcotest
      (prop "fuzz: block splices, same verdict, no raise" splice_gen);
    QCheck_alcotest.to_alcotest
      (prop "fuzz: truncate/extend, same verdict, no raise" resize_gen);
    QCheck_alcotest.to_alcotest
      (prop "fuzz: raw garbage, same verdict, no raise" garbage_gen);
  ]
