(** Reference decoder for the packet header: the record-building
    parser that [Packet.View.parse] replaced on the wire path. It is
    the differential oracle for the view in test_view.ml and the wire
    fuzzer, and the decoder of the round-trip properties in
    test_packet.ml; it runs on no production path. *)

open Colibri_types
open Colibri
open Packet

let of_bytes (b : bytes) : (t, parse_error) result =
  let len = Bytes.length b in
  if len < fixed_header_len then Error Truncated
  else if Bytes.get_uint16_be b 0 <> magic then Error Bad_magic
  else begin
    match Bytes.get_uint8 b 2 with
    | (0 | 1) as kind_byte ->
        let hops = Bytes.get_uint8 b 3 in
        if hops < 1 then Error Bad_hop_count
        else if len < header_len ~hops then Error Truncated
        else begin
          let payload_len = Int32.to_int (Bytes.get_int32_be b 4) in
          (* A negative length would shrink [wire_size]/[actual_size]
             and corrupt the Eq. (6) size accounting downstream. *)
          if payload_len < 0 then Error Bad_payload_len
          else begin
          let ts = Timebase.Ts.of_int (Int64.to_int (Bytes.get_int64_be b 8)) in
          let off = fixed_header_len in
          let path = Path.of_bytes b ~off ~count:hops in
          match Path.validate path with
          | Error e -> Error (Bad_path e)
          | Ok () ->
              let off = off + (hops * Path.hop_byte_size) in
              let res_info = res_info_of_bytes b ~off in
              let off = off + res_info_len in
              let kind = if kind_byte = 0 then Seg else Eer in
              let eer_info =
                match kind with Seg -> None | Eer -> Some (eer_info_of_bytes b ~off)
              in
              let off = off + eer_info_len in
              let hvfs =
                Array.init hops (fun i -> Bytes.sub b (off + (i * hvf_len)) hvf_len)
              in
              Ok { kind; path; res_info; eer_info; ts; hvfs; payload_len }
          end
        end
    | _ -> Error Bad_kind
  end
