(** Tests for the crypto substrate: AES-128 against FIPS-197 /
    SP 800-38A vectors, AES-CMAC against RFC 4493, AEAD round-trips and
    tamper detection, plus property-based checks — among them a
    differential oracle pinning the T-table cipher and the word-wise
    CMAC to the byte-oriented reference AES in aes_ref.ml. *)

open Crypto

let check_hex msg expected b = Alcotest.(check string) msg expected (Hex.of_bytes b)

let aes_fips_vector () =
  (* FIPS-197 Appendix C.1 *)
  let key = Hex.to_bytes "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.to_bytes "00112233445566778899aabbccddeeff" in
  check_hex "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (Aes.encrypt (Aes.of_secret key) pt)

let aes_sp800_38a_vectors () =
  (* NIST SP 800-38A F.1.1: AES-128 ECB *)
  let k = Aes.of_secret (Hex.to_bytes "2b7e151628aed2a6abf7158809cf4f3c") in
  let cases =
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]
  in
  List.iter
    (fun (pt, ct) -> check_hex pt ct (Aes.encrypt k (Hex.to_bytes pt)))
    cases

let aes_bad_key_size () =
  Alcotest.check_raises "15-byte key" (Invalid_argument "Aes.expand: key must be 16 bytes")
    (fun () -> ignore (Aes.of_secret (Bytes.make 15 'x')))

let aes_in_place () =
  (* encrypt_block must allow src == dst *)
  let k = Aes.of_secret (Hex.to_bytes "000102030405060708090a0b0c0d0e0f") in
  let b = Hex.to_bytes "00112233445566778899aabbccddeeff" in
  Aes.encrypt_block k ~src:b ~src_off:0 ~dst:b ~dst_off:0;
  check_hex "in place" "69c4e0d86a7b0430d8cdb78070b4c55a" b

let cmac_rfc4493_vectors () =
  let k = Cmac.of_secret (Hex.to_bytes "2b7e151628aed2a6abf7158809cf4f3c") in
  let m =
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
  in
  let digest hex = Hex.of_bytes (Cmac.digest k (Hex.to_bytes hex)) in
  Alcotest.(check string) "empty" "bb1d6929e95937287fa37d129b756746" (digest "");
  Alcotest.(check string) "16B" "070a16b46b4d4144f79bdd9dd04a287c"
    (digest (String.sub m 0 32));
  Alcotest.(check string) "40B" "dfa66747de9ae63030ca32611497c827"
    (digest (String.sub m 0 80));
  Alcotest.(check string) "64B" "51f0bebf7e3b9d92fc49741779363cfe" (digest m)

let cmac_truncation () =
  let k = Cmac.of_secret (Bytes.make 16 'k') in
  let m = Bytes.of_string "colibri" in
  let full = Cmac.digest k m in
  let t4 = Cmac.digest_trunc k m ~len:4 in
  Alcotest.(check int) "length" 4 (Bytes.length t4);
  Alcotest.(check string) "prefix" (Bytes.to_string (Bytes.sub full 0 4)) (Bytes.to_string t4);
  Alcotest.check_raises "len 0" (Invalid_argument "Cmac.digest_trunc: len must be in 1..16")
    (fun () -> ignore (Cmac.digest_trunc k m ~len:0));
  Alcotest.check_raises "len 17" (Invalid_argument "Cmac.digest_trunc: len must be in 1..16")
    (fun () -> ignore (Cmac.digest_trunc k m ~len:17))

let cmac_verify () =
  let k = Cmac.of_secret (Bytes.make 16 'k') in
  let m = Bytes.of_string "message" in
  let tag = Cmac.digest k m in
  Alcotest.(check bool) "valid" true (Cmac.verify k m ~tag);
  Alcotest.(check bool) "valid truncated" true
    (Cmac.verify k m ~tag:(Bytes.sub tag 0 4));
  let bad = Bytes.copy tag in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
  Alcotest.(check bool) "tampered" false (Cmac.verify k m ~tag:bad);
  Alcotest.(check bool) "wrong message" false
    (Cmac.verify k (Bytes.of_string "messagf") ~tag);
  Alcotest.(check bool) "empty tag" false (Cmac.verify k m ~tag:Bytes.empty)

let aead_roundtrip () =
  let k = Aead.of_secret (Bytes.make 16 's') in
  let nonce = Bytes.make 16 'n' and ad = Bytes.of_string "header" in
  let plain = Bytes.of_string "the hop authenticator sigma" in
  let sealed = Aead.seal k ~nonce ~ad plain in
  Alcotest.(check int) "overhead" (Bytes.length plain + Aead.tag_size) (Bytes.length sealed);
  match Aead.open_ k ~nonce ~ad sealed with
  | Some p -> Alcotest.(check string) "plaintext" (Bytes.to_string plain) (Bytes.to_string p)
  | None -> Alcotest.fail "open_ failed on valid input"

let aead_rejects_tampering () =
  let k = Aead.of_secret (Bytes.make 16 's') in
  let nonce = Bytes.make 16 'n' and ad = Bytes.of_string "header" in
  let sealed = Aead.seal k ~nonce ~ad (Bytes.of_string "secret") in
  let flip i b =
    let c = Bytes.copy b in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x80));
    c
  in
  Alcotest.(check bool) "ciphertext bit" true (Aead.open_ k ~nonce ~ad (flip 0 sealed) = None);
  Alcotest.(check bool) "tag bit" true
    (Aead.open_ k ~nonce ~ad (flip (Bytes.length sealed - 1) sealed) = None);
  Alcotest.(check bool) "wrong ad" true
    (Aead.open_ k ~nonce ~ad:(Bytes.of_string "other") sealed = None);
  Alcotest.(check bool) "wrong nonce" true
    (Aead.open_ k ~nonce:(Bytes.make 16 'm') ~ad sealed = None);
  Alcotest.(check bool) "wrong key" true
    (Aead.open_ (Aead.of_secret (Bytes.make 16 't')) ~nonce ~ad sealed = None);
  Alcotest.(check bool) "too short" true
    (Aead.open_ k ~nonce ~ad (Bytes.make 8 'x') = None)

let aead_empty_plaintext () =
  let k = Aead.of_secret (Bytes.make 16 's') in
  let nonce = Bytes.make 16 'n' in
  let sealed = Aead.seal k ~nonce ~ad:Bytes.empty Bytes.empty in
  match Aead.open_ k ~nonce ~ad:Bytes.empty sealed with
  | Some p -> Alcotest.(check int) "empty" 0 (Bytes.length p)
  | None -> Alcotest.fail "open_ failed"

let hex_roundtrip () =
  Alcotest.(check string) "spaces ignored"
    (Hex.of_bytes (Hex.to_bytes "de ad be ef"))
    "deadbeef";
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.to_bytes: odd length")
    (fun () -> ignore (Hex.to_bytes "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.to_bytes: not a hex digit")
    (fun () -> ignore (Hex.to_bytes "zz"))

(* Property-based tests *)

let bytes_gen =
  QCheck2.Gen.(map Bytes.of_string (string_size ~gen:printable (0 -- 200)))

let prop_cmac_deterministic =
  QCheck2.Test.make ~name:"cmac: deterministic and verifies" ~count:200 bytes_gen
    (fun msg ->
      let k = Cmac.of_secret (Bytes.make 16 'q') in
      let t1 = Cmac.digest k msg and t2 = Cmac.digest k msg in
      Bytes.equal t1 t2 && Cmac.verify k msg ~tag:t1)

let prop_cmac_distinct_keys =
  QCheck2.Test.make ~name:"cmac: different keys give different tags" ~count:100
    bytes_gen (fun msg ->
      let k1 = Cmac.of_secret (Bytes.make 16 'a')
      and k2 = Cmac.of_secret (Bytes.make 16 'b') in
      not (Bytes.equal (Cmac.digest k1 msg) (Cmac.digest k2 msg)))

(* Differential oracle. [ref_cmac] is RFC 4493 written out bytewise
   over the reference AES, with fresh buffers everywhere. *)

let ref_cmac (secret : bytes) (msg : bytes) : bytes =
  let k = Aes_ref.expand secret in
  let byte b i = Char.code (Bytes.get b i) in
  let xor a b = Bytes.init 16 (fun i -> Char.chr (byte a i lxor byte b i)) in
  let dbl b =
    Bytes.init 16 (fun i ->
        let next = if i = 15 then 0 else byte b (i + 1) lsr 7 in
        let red = if i = 15 && byte b 0 land 0x80 <> 0 then 0x87 else 0 in
        Char.chr (((byte b i lsl 1) land 0xff) lor next lxor red))
  in
  let k1 = dbl (Aes_ref.encrypt k (Bytes.make 16 '\000')) in
  let k2 = dbl k1 in
  let len = Bytes.length msg in
  let n = if len = 0 then 1 else (len + 15) / 16 in
  let x = ref (Bytes.make 16 '\000') in
  for i = 0 to n - 1 do
    let m = min 16 (len - (i * 16)) in
    let blk = Bytes.make 16 '\000' in
    Bytes.blit msg (i * 16) blk 0 m;
    let blk =
      if i < n - 1 then blk
      else if m = 16 then xor blk k1
      else begin
        Bytes.set blk m '\x80';
        xor blk k2
      end
    in
    x := Aes_ref.encrypt k (xor !x blk)
  done;
  !x

let bytes_of_len n = QCheck2.Gen.(map Bytes.of_string (string_size ~gen:char (return n)))

let prop_aes_matches_reference =
  QCheck2.Test.make ~name:"aes: encrypt_block = reference (offsets, src == dst)"
    ~count:1000
    QCheck2.Gen.(
      tup4 (bytes_of_len 16) (bytes_of_len 48) (pair (0 -- 32) (0 -- 32)) bool)
    (fun (key, buf, (src_off, dst_off), alias) ->
      let block = Bytes.sub buf src_off 16 in
      let ct = Bytes.create 16 in
      Aes_ref.encrypt_block (Aes_ref.expand key) ~src:block ~src_off:0 ~dst:ct ~dst_off:0;
      (* Expected destination buffer: its old bytes with the
         ciphertext at [dst_off] and nothing else touched. *)
      let dst = if alias then buf else Bytes.make 48 '\000' in
      let expect = Bytes.copy dst in
      Bytes.blit ct 0 expect dst_off 16;
      Aes.encrypt_block (Aes.expand key) ~src:buf ~src_off ~dst ~dst_off;
      Bytes.equal dst expect)

let prop_aes_rekey_matches_expand =
  QCheck2.Test.make ~name:"aes: rekey = expand" ~count:1000
    QCheck2.Gen.(tup4 (bytes_of_len 16) (bytes_of_len 40) (0 -- 24) (bytes_of_len 16))
    (fun (old, secrets, off, block) ->
      let k = Aes.expand old in
      Aes.rekey k secrets ~off;
      let secret = Bytes.sub secrets off 16 in
      let ct = Aes.encrypt k block in
      Bytes.equal ct (Aes.encrypt (Aes.expand secret) block)
      && Bytes.equal ct (Aes_ref.encrypt (Aes_ref.expand secret) block))

let prop_cmac_rekey_matches_of_secret =
  QCheck2.Test.make ~name:"cmac: rekey + digest = of_secret + digest = reference"
    ~count:1000
    QCheck2.Gen.(
      tup4
        (pair (bytes_of_len 16) (bytes_of_len 40))
        (0 -- 24)
        (0 -- 64 >>= fun len -> pair (return len) (0 -- 8))
        (bytes_of_len 72))
    (fun ((old, secrets), off, (len, msg_off), buf) ->
      let k = Cmac.of_secret old in
      Cmac.rekey k secrets ~off;
      let secret = Bytes.sub secrets off 16 in
      let msg = Bytes.sub buf msg_off len in
      let expect = ref_cmac secret msg in
      let span = Bytes.create 20 in
      Cmac.digest_into k buf ~off:msg_off ~len ~dst:span ~dst_off:4;
      Bytes.equal (Cmac.digest k msg) expect
      && Bytes.equal (Cmac.digest (Cmac.of_secret secret) msg) expect
      && Bytes.equal (Bytes.sub span 4 16) expect)

let prop_aead_roundtrip =
  QCheck2.Test.make ~name:"aead: seal/open roundtrip" ~count:200
    QCheck2.Gen.(pair bytes_gen bytes_gen)
    (fun (plain, ad) ->
      let k = Aead.of_secret (Bytes.make 16 'z') in
      let nonce = Bytes.init 16 (fun i -> Char.chr ((i * 7) mod 256)) in
      match Aead.open_ k ~nonce ~ad (Aead.seal k ~nonce ~ad plain) with
      | Some p -> Bytes.equal p plain
      | None -> false)

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"hex: roundtrip" ~count:200 bytes_gen (fun b ->
      Bytes.equal (Hex.to_bytes (Hex.of_bytes b)) b)

let suite =
  [
    Alcotest.test_case "AES FIPS-197 vector" `Quick aes_fips_vector;
    Alcotest.test_case "AES SP800-38A vectors" `Quick aes_sp800_38a_vectors;
    Alcotest.test_case "AES rejects bad key size" `Quick aes_bad_key_size;
    Alcotest.test_case "AES in-place block" `Quick aes_in_place;
    Alcotest.test_case "CMAC RFC 4493 vectors" `Quick cmac_rfc4493_vectors;
    Alcotest.test_case "CMAC truncation" `Quick cmac_truncation;
    Alcotest.test_case "CMAC verify" `Quick cmac_verify;
    Alcotest.test_case "AEAD roundtrip" `Quick aead_roundtrip;
    Alcotest.test_case "AEAD rejects tampering" `Quick aead_rejects_tampering;
    Alcotest.test_case "AEAD empty plaintext" `Quick aead_empty_plaintext;
    Alcotest.test_case "hex helpers" `Quick hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_aes_matches_reference;
    QCheck_alcotest.to_alcotest prop_aes_rekey_matches_expand;
    QCheck_alcotest.to_alcotest prop_cmac_rekey_matches_of_secret;
    QCheck_alcotest.to_alcotest prop_cmac_deterministic;
    QCheck_alcotest.to_alcotest prop_cmac_distinct_keys;
    QCheck_alcotest.to_alcotest prop_aead_roundtrip;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
  ]
