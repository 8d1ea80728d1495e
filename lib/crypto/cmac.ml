(** AES-CMAC (RFC 4493 / NIST SP 800-38B).

    CMAC over AES-128 is the message-authentication primitive used
    everywhere in Colibri: the DRKey pseudo-random function (Eq. (1)),
    the segment-reservation tokens (Eq. (3)), the hop authenticators
    (Eq. (4)), and the per-packet hop validation fields (Eq. (6)).

    The key record carries the digest loop's working block [x] and the
    two subkeys, so that {!digest_into} / {!digest_trunc_into} are
    allocation-free; see DESIGN.md §8 for the scratch-ownership rules.
    A consequence is that one [key] must not be shared across domains.

    Blocks are combined eight bytes at a time (a partial last block in
    8-, 4- and 1-byte steps). XOR is bytewise, so these native-endian
    loads and stores need no byte order; only the subkey doublings
    read L as big-endian words. *)

type key = { aes : Aes.key; sub : bytes; x : bytes }
(* [sub] is K1 ‖ K2 (32 bytes); [x] is the running CBC block, which
   holds the tag after [digest_core]. *)

(* [dst+d, dst+d+8) ^= [src+s, src+s+8). *)
let xor8 (dst : bytes) d (src : bytes) s =
  Bytes.set_int64_ne dst d (Int64.logxor (Bytes.get_int64_ne dst d) (Bytes.get_int64_ne src s))

(* [dst+d, dst+d+4) ^= [src+s, src+s+4). *)
let xor4 (dst : bytes) d (src : bytes) s =
  Bytes.set_int32_ne dst d (Int32.logxor (Bytes.get_int32_ne dst d) (Bytes.get_int32_ne src s))

let get_word (b : bytes) off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let put_word (b : bytes) off w = Bytes.set_int32_be b off (Int32.of_int w)

(* One doubling in GF(2^128) of the 128-bit big-endian value [w0..w3]
   (32-bit words), written at [dst+off]: a one-bit left shift with the
   0x87 reduction when the top bit falls out (RFC 4493 §2.3). *)
let put_double (dst : bytes) off w0 w1 w2 w3 =
  put_word dst off (((w0 lsl 1) lor (w1 lsr 31)) land 0xffffffff);
  put_word dst (off + 4) (((w1 lsl 1) lor (w2 lsr 31)) land 0xffffffff);
  put_word dst (off + 8) (((w2 lsl 1) lor (w3 lsr 31)) land 0xffffffff);
  put_word dst (off + 12) (((w3 lsl 1) land 0xffffffff) lxor (0x87 * (w0 lsr 31)))

(* Subkey generation per RFC 4493 §2.3 into [k.sub]: L = AES_K(0^128)
   in [k.x], K1 = L·x, K2 = K1·x. *)
(* hot-path *)
let derive_subkeys (k : key) =
  let x = k.x and sub = k.sub in
  Bytes.set_int64_ne x 0 0L;
  Bytes.set_int64_ne x 8 0L;
  Aes.encrypt_block k.aes ~src:x ~src_off:0 ~dst:x ~dst_off:0;
  put_double sub 0 (get_word x 0) (get_word x 4) (get_word x 8) (get_word x 12);
  put_double sub 16 (get_word sub 0) (get_word sub 4) (get_word sub 8) (get_word sub 12)

let of_aes_key (aes : Aes.key) : key =
  let k = { aes; sub = Bytes.create 32; x = Bytes.create 16 } in
  derive_subkeys k;
  k

let of_secret (secret : bytes) : key = of_aes_key (Aes.of_secret secret)

(** [rekey k secret ~off] re-keys [k] in place with the 16-byte secret
    at [secret+off]: the AES schedule and both CMAC subkeys are
    recomputed into the existing buffers, with zero allocation. This is
    how the router re-derives the per-reservation σ key per packet. *)
(* hot-path *)
let rekey (k : key) (secret : bytes) ~(off : int) =
  Aes.rekey k.aes secret ~off;
  derive_subkeys k

let mac_size = 16

(* Core CMAC over the span [msg+off, msg+off+len); leaves the 16-byte
   tag in [k.x]. Allocation-free. *)
(* hot-path *)
let digest_core (k : key) (msg : bytes) ~(off : int) ~(len : int) =
  (* Caller-contract guard: offsets on the wire path are computed from
     already-validated headers, so this never fires per packet. *)
  if off < 0 || len < 0 || off + len > Bytes.length msg then
    invalid_arg "Cmac.digest: span out of bounds" [@colibri.allow "d2"];
  let nblocks = if len = 0 then 1 else (len + 15) / 16 in
  let x = k.x in
  Bytes.set_int64_ne x 0 0L;
  Bytes.set_int64_ne x 8 0L;
  (* Process all complete blocks except the last. *)
  for i = 0 to nblocks - 2 do
    xor8 x 0 msg (off + (i * 16));
    xor8 x 8 msg (off + (i * 16) + 8);
    Aes.encrypt_block k.aes ~src:x ~src_off:0 ~dst:x ~dst_off:0
  done;
  (* Last block: complete → xor K1; partial → pad 10* and xor K2. *)
  let boff = off + ((nblocks - 1) * 16) in
  let rem = len - ((nblocks - 1) * 16) in
  if rem = 16 then begin
    xor8 x 0 msg boff;
    xor8 x 8 msg (boff + 8);
    xor8 x 0 k.sub 0;
    xor8 x 8 k.sub 8
  end
  else begin
    xor8 x 0 k.sub 16;
    xor8 x 8 k.sub 24;
    let j = if rem >= 8 then (xor8 x 0 msg boff; 8) else 0 in
    let j = if rem - j >= 4 then (xor4 x j msg (boff + j); j + 4) else j in
    for j = j to rem - 1 do
      Bytes.set x j (Char.chr (Char.code (Bytes.get x j) lxor Char.code (Bytes.get msg (boff + j))))
    done;
    Bytes.set x rem (Char.chr (Char.code (Bytes.get x rem) lxor 0x80))
  end;
  Aes.encrypt_block k.aes ~src:x ~src_off:0 ~dst:x ~dst_off:0

(** [digest_into k msg ~off ~len ~dst ~dst_off] writes the 16-byte CMAC
    of the span [msg+off, msg+off+len) into [dst+dst_off]. The only
    buffers touched are [dst] and [k]'s own scratch. *)
(* hot-path *)
let digest_into (k : key) (msg : bytes) ~off ~len ~(dst : bytes) ~dst_off =
  (* Caller-contract guard, as in [digest_core]. *)
  if dst_off < 0 || dst_off + 16 > Bytes.length dst then
    invalid_arg "Cmac.digest_into: dst span out of bounds" [@colibri.allow "d2"];
  digest_core k msg ~off ~len;
  Bytes.blit k.x 0 dst dst_off 16

(** [digest_trunc_into] is {!digest_into} truncated to [tag_len] bytes
    (Colibri truncates hop validation fields to ℓ_hvf = 4 bytes). *)
(* hot-path *)
let digest_trunc_into (k : key) (msg : bytes) ~off ~len ~(dst : bytes) ~dst_off
    ~tag_len =
  (* Caller-contract guards, as in [digest_core]. *)
  if tag_len < 1 || tag_len > 16 then
    invalid_arg "Cmac.digest_trunc_into: tag_len must be in 1..16" [@colibri.allow "d2"];
  if dst_off < 0 || dst_off + tag_len > Bytes.length dst then
    invalid_arg "Cmac.digest_trunc_into: dst span out of bounds" [@colibri.allow "d2"];
  digest_core k msg ~off ~len;
  Bytes.blit k.x 0 dst dst_off tag_len

(** [digest key msg] is the full 16-byte CMAC of [msg]. *)
let digest (k : key) (msg : bytes) : bytes =
  let out = Bytes.create 16 in
  digest_into k msg ~off:0 ~len:(Bytes.length msg) ~dst:out ~dst_off:0;
  out

(** [digest_trunc key msg ~len] is the first [len] bytes of the CMAC. *)
let digest_trunc (k : key) (msg : bytes) ~len : bytes =
  if len < 1 || len > 16 then invalid_arg "Cmac.digest_trunc: len must be in 1..16";
  let out = Bytes.create len in
  digest_trunc_into k msg ~off:0 ~len:(Bytes.length msg) ~dst:out ~dst_off:0
    ~tag_len:len;
  out

(** Constant-time tag comparison (length must match). *)
let verify (k : key) (msg : bytes) ~(tag : bytes) : bool =
  let len = Bytes.length tag in
  if len < 1 || len > 16 then false
  else begin
    digest_core k msg ~off:0 ~len:(Bytes.length msg);
    let expect = k.x in
    let acc = ref 0 in
    for i = 0 to len - 1 do
      acc := !acc lor (Char.code (Bytes.get expect i) lxor Char.code (Bytes.get tag i))
    done;
    !acc = 0
  end

(** Constant-time comparison of the first [tag_len] bytes of the CMAC of
    the span [msg+off, msg+off+len) against [tag+tag_off]. Allocation-
    free: this is what the router's per-packet HVF check compiles to. *)
(* hot-path *)
let verify_at (k : key) (msg : bytes) ~off ~len ~(tag : bytes) ~tag_off ~tag_len
    : bool =
  if tag_len < 1 || tag_len > 16 then false
  else if tag_off < 0 || tag_off + tag_len > Bytes.length tag then false
  else begin
    digest_core k msg ~off ~len;
    let expect = k.x in
    let acc = ref 0 in
    for i = 0 to tag_len - 1 do
      acc :=
        !acc
        lor (Char.code (Bytes.get expect i)
            lxor Char.code (Bytes.get tag (tag_off + i)))
    done;
    !acc = 0
  end
