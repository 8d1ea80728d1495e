(** AES-128 block cipher (FIPS-197), encryption direction only.

    Colibri needs AES only as a pseudo-random permutation underneath
    CMAC (hop-validation-field MACs, DRKey PRF) and CTR-mode AEAD, all
    of which use the forward direction exclusively. Validated against
    the FIPS-197 and SP 800-38A vectors and, differentially, against
    the reference rendition of the standard kept in the test suite.

    This is the 32-bit T-table formulation. The state is four
    big-endian column words held in local ints; each of rounds 1–9 is
    sixteen lookups into four 256-entry tables that fold SubBytes,
    ShiftRows and MixColumns together, XORed with the round key; the
    last round, which has no MixColumns, reads the S-box. The 44 round
    keys are ints expanded word-wise, so a block touches no state
    array and allocates nothing.

    Performance note: the paper's data plane uses AES-NI; a software
    block is still about an order of magnitude slower, which uniformly
    scales down the absolute packet rates of the benchmarks without
    changing their shape. T-table lookups index memory by secret bytes
    exactly as an S-box does; see DESIGN.md §3 for the cache-timing
    stance. *)

type key = int array
(** The 44 round-key words, each a big-endian 32-bit column in the low
    bits of an int. {!rekey} overwrites them in place, so one [key]
    must not be re-keyed while another domain encrypts with it. *)

let block_size = 16

let sbox =
  "\x63\x7c\x77\x7b\xf2\x6b\x6f\xc5\x30\x01\x67\x2b\xfe\xd7\xab\x76\
   \xca\x82\xc9\x7d\xfa\x59\x47\xf0\xad\xd4\xa2\xaf\x9c\xa4\x72\xc0\
   \xb7\xfd\x93\x26\x36\x3f\xf7\xcc\x34\xa5\xe5\xf1\x71\xd8\x31\x15\
   \x04\xc7\x23\xc3\x18\x96\x05\x9a\x07\x12\x80\xe2\xeb\x27\xb2\x75\
   \x09\x83\x2c\x1a\x1b\x6e\x5a\xa0\x52\x3b\xd6\xb3\x29\xe3\x2f\x84\
   \x53\xd1\x00\xed\x20\xfc\xb1\x5b\x6a\xcb\xbe\x39\x4a\x4c\x58\xcf\
   \xd0\xef\xaa\xfb\x43\x4d\x33\x85\x45\xf9\x02\x7f\x50\x3c\x9f\xa8\
   \x51\xa3\x40\x8f\x92\x9d\x38\xf5\xbc\xb6\xda\x21\x10\xff\xf3\xd2\
   \xcd\x0c\x13\xec\x5f\x97\x44\x17\xc4\xa7\x7e\x3d\x64\x5d\x19\x73\
   \x60\x81\x4f\xdc\x22\x2a\x90\x88\x46\xee\xb8\x14\xde\x5e\x0b\xdb\
   \xe0\x32\x3a\x0a\x49\x06\x24\x5c\xc2\xd3\xac\x62\x91\x95\xe4\x79\
   \xe7\xc8\x37\x6d\x8d\xd5\x4e\xa9\x6c\x56\xf4\xea\x65\x7a\xae\x08\
   \xba\x78\x25\x2e\x1c\xa6\xb4\xc6\xe8\xdd\x74\x1f\x4b\xbd\x8b\x8a\
   \x70\x3e\xb5\x66\x48\x03\xf6\x0e\x61\x35\x57\xb9\x86\xc1\x1d\x9e\
   \xe1\xf8\x98\x11\x69\xd9\x8e\x94\x9b\x1e\x87\xe9\xce\x55\x28\xdf\
   \x8c\xa1\x89\x0d\xbf\xe6\x42\x68\x41\x99\x2d\x0f\xb0\x54\xbb\x16"

(* The S-box, the round constants and the T-tables are immutable
   strings, so sharing them across router domains needs no review
   (DESIGN.md §11). *)
let sub i = Char.code (String.get sbox i)

(* Round constants of the key schedule, x^(r-1) in GF(2^8). *)
let rcon = "\x01\x02\x04\x08\x10\x20\x40\x80\x1b\x36"

(* [mul2 s] = s·2 in GF(2^8) with the AES polynomial. *)
let mul2 s =
  let d = s lsl 1 in
  if d land 0x100 <> 0 then d lxor 0x11b else d

(* The four T-tables, 256 little-endian 32-bit entries each, in one
   string: table [t] starts at byte [1024 * t]. Te0[x] is the
   MixColumns column of s = S(x) entering in row 0, (2s, s, s, 3s)
   big-endian; Te_t, for a byte entering in row t, is Te0 rotated
   right by t bytes. *)
let tables =
  String.init 4096 (fun j ->
      let s = sub ((j lsr 2) land 0xff) in
      let w = (mul2 s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (mul2 s lxor s) in
      let r = 8 * (j lsr 10) in
      let w = ((w lsr r) lor (w lsl (32 - r))) land 0xffffffff in
      Char.chr ((w lsr (8 * (j land 3))) land 0xff))

(* Entry of table [t] for the byte of [w] at bit position [shift].
   The entry is sign-extended, not masked to 32 bits: round state only
   ever has bytes extracted from it (each masked) or its low 32 bits
   stored, so the high bits are don't-care and the mask would cost two
   instructions per lookup. *)
let[@inline] te t w shift =
  Int32.to_int (String.get_int32_le tables ((t lsl 10) lor (((w lsr shift) land 0xff) lsl 2)))

let[@inline] get_word (b : bytes) off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let[@inline] put_word (b : bytes) off w = Bytes.set_int32_be b off (Int32.of_int w)

(* The word whose byte in row k (k = 0 the top byte) is the S-box
   image of row k of the k-th argument: the final round's SubBytes +
   ShiftRows, and SubWord when all four arguments are one word. *)
let[@inline] sub_rows a b c d =
  (sub ((a lsr 24) land 0xff) lsl 24)
  lor (sub ((b lsr 16) land 0xff) lsl 16)
  lor (sub ((c lsr 8) land 0xff) lsl 8)
  lor sub (d land 0xff)

(* Key-schedule core: expand the 16-byte key at [key+off] into [rk]
   (44 words), in place. Shared by [expand] and [rekey]; the router
   re-runs it per EER packet (σ re-derivation), so it must not
   allocate. *)
(* hot-path *)
let expand_into (rk : int array) (key : bytes) ~(off : int) =
  rk.(0) <- get_word key off;
  rk.(1) <- get_word key (off + 4);
  rk.(2) <- get_word key (off + 8);
  rk.(3) <- get_word key (off + 12);
  for r = 1 to 10 do
    let i = 4 * r in
    (* SubWord (RotWord w) + Rcon on the previous round's last word *)
    let w = rk.(i - 1) in
    let rot = ((w lsl 8) lor (w lsr 24)) land 0xffffffff in
    let w0 = rk.(i - 4) lxor sub_rows rot rot rot rot lxor (Char.code rcon.[r - 1] lsl 24) in
    let w1 = rk.(i - 3) lxor w0 in
    let w2 = rk.(i - 2) lxor w1 in
    rk.(i) <- w0;
    rk.(i + 1) <- w1;
    rk.(i + 2) <- w2;
    rk.(i + 3) <- rk.(i - 1) lxor w2
  done

(** Expand a 16-byte key into the 11-round-key schedule. *)
let expand (key : bytes) : key =
  if Bytes.length key <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  let rk = Array.make 44 0 in
  expand_into rk key ~off:0;
  rk

let of_secret = expand

(** [rekey k key ~off] re-expands the 16-byte secret at [key+off] into
    [k]'s existing schedule. This is how the router derives the
    per-reservation σ key without allocating (DESIGN.md §8). *)
(* hot-path *)
let rekey (k : key) (key : bytes) ~(off : int) =
  (* Caller-contract guard: σ-key offsets come from validated headers. *)
  if off < 0 || off + 16 > Bytes.length key then
    invalid_arg "Aes.rekey: need 16 bytes" [@colibri.allow "d2"];
  expand_into k key ~off

(** [encrypt_block key ~src ~src_off ~dst ~dst_off] encrypts the
    16-byte block at [src+src_off] into [dst+dst_off]. [src] and [dst]
    may alias: the whole block is read before any byte is written. *)
(* hot-path *)
let encrypt_block (rk : key) ~(src : bytes) ~src_off ~(dst : bytes) ~dst_off =
  let s0 = ref (get_word src src_off lxor rk.(0))
  and s1 = ref (get_word src (src_off + 4) lxor rk.(1))
  and s2 = ref (get_word src (src_off + 8) lxor rk.(2))
  and s3 = ref (get_word src (src_off + 12) lxor rk.(3)) in
  for r = 1 to 9 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 and i = 4 * r in
    s0 := te 0 a 24 lxor te 1 b 16 lxor te 2 c 8 lxor te 3 d 0 lxor rk.(i);
    s1 := te 0 b 24 lxor te 1 c 16 lxor te 2 d 8 lxor te 3 a 0 lxor rk.(i + 1);
    s2 := te 0 c 24 lxor te 1 d 16 lxor te 2 a 8 lxor te 3 b 0 lxor rk.(i + 2);
    s3 := te 0 d 24 lxor te 1 a 16 lxor te 2 b 8 lxor te 3 c 0 lxor rk.(i + 3)
  done;
  (* Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns. *)
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  put_word dst dst_off (sub_rows a b c d lxor rk.(40));
  put_word dst (dst_off + 4) (sub_rows b c d a lxor rk.(41));
  put_word dst (dst_off + 8) (sub_rows c d a b lxor rk.(42));
  put_word dst (dst_off + 12) (sub_rows d a b c lxor rk.(43))

(** Convenience: encrypt one standalone 16-byte block. *)
let encrypt (k : key) (block : bytes) : bytes =
  if Bytes.length block <> 16 then invalid_arg "Aes.encrypt: block must be 16 bytes";
  let out = Bytes.create 16 in
  encrypt_block k ~src:block ~src_off:0 ~dst:out ~dst_off:0;
  out
