(** Probabilistic overuse-flow detector (§4.8, LOFT-style [44, 64]).

    Transit and transfer ASes see far too many EERs for per-flow state,
    so overuse detection runs on a count-min sketch with a fixed memory
    footprint. Per packet, the OFD receives the flow label
    [(SrcAS, ResId)] and the {e normalized packet size}

    {v normalized = packet size in bits / reservation bandwidth v}

    i.e. the number of seconds of reservation time the packet consumes.
    Packets of all versions of an EER share a flow label, which makes a
    sender using multiple versions accountable for the {e maximum}
    bandwidth across versions, not the sum (§4.8). Over a measurement
    window of [window] seconds, a conforming flow accumulates at most
    [window] (plus burst slack) normalized usage; flows whose sketch
    estimate exceeds [threshold × window] are reported as suspects.

    The sketch never under-estimates, so within a window there are no
    false negatives for flows exceeding the threshold; hash collisions
    can cause false positives — which is why the paper escalates
    suspects to exact, deterministic monitoring rather than punishing
    them directly. *)

open Colibri_types

type t = {
  width : int;
  depth : int;
  window : float; (* seconds per measurement window *)
  threshold : float; (* multiple of the fair share that flags a suspect *)
  rows : float array array; (* depth × width counters, normalized seconds *)
  seeds : int array;
  mutable window_start : float;
  mutable suspects : unit Ids.Res_key_tbl.t; (* flagged in current window *)
  mutable observed_packets : int;
}

let create ?(width = 4096) ?(depth = 4) ~(window : float) ~(threshold : float)
    ~(now : float) () : t =
  if width <= 0 || depth <= 0 || window <= 0. || threshold <= 0. then
    (* Construction-time validation; never on the per-packet path. *)
    (* lint: allow hot-path-exn *)
    invalid_arg "Ofd.create";
  {
    width;
    depth;
    window;
    threshold;
    rows = Array.make_matrix depth width 0.;
    seeds = Array.init depth (fun i -> 0x9e3779b9 + (i * 0x61c88647));
    window_start = now;
    suspects = Ids.Res_key_tbl.create 16;
    observed_packets = 0;
  }

let maybe_rotate (t : t) ~now =
  if now -. t.window_start >= t.window then begin
    (* A [for] loop, not [Array.iter f]: rotation is reached from every
       [observe], and the closure for [f] would allocate each call. *)
    for r = 0 to Array.length t.rows - 1 do
      Array.fill t.rows.(r) 0 t.width 0.
    done;
    Ids.Res_key_tbl.reset t.suspects;
    t.window_start <- now;
    t.observed_packets <- 0
  end

(* Count-min indexing needs a fast non-cryptographic spread, not
   authentication — a collision only inflates an estimate (a false
   suspect escalated to exact monitoring), never hides overuse. The
   flow label and the row seed are mixed with integer arithmetic only,
   so the per-packet [observe] and [estimate] allocate nothing here. *)
let slot (t : t) (key : Ids.res_key) (row : int) =
  let mix = Duplicate_filter.fmix in
  mix (mix (mix (t.seeds.(row) lxor key.src_as.isd) lxor key.src_as.num) lxor key.res_id)
  land max_int mod t.width

(** Current sketch estimate (normalized seconds in this window) for a
    flow: the minimum across rows, the classic count-min bound. *)
let estimate (t : t) (key : Ids.res_key) : float =
  let est = ref Float.max_float in
  for row = 0 to t.depth - 1 do
    est := Float.min !est t.rows.(row).(slot t key row)
  done;
  !est

(** [observe t ~now ~key ~normalized] accounts one packet and reports
    whether the flow's estimated usage now exceeds the overuse
    threshold. A flow is reported as suspect at most once per window. *)
let observe (t : t) ~(now : float) ~(key : Ids.res_key) ~(normalized : float) :
    [ `Ok | `Suspect ] =
  maybe_rotate t ~now;
  (* Per-packet path: must not raise. A negative normalized size cannot
     come from a well-formed packet (sizes and reserved bandwidths are
     positive); clamp defensively instead of trusting the caller. *)
  let normalized = Float.max 0. normalized in
  t.observed_packets <- t.observed_packets + 1;
  (* The estimate is taken in the update loop, from the cells just
     written: the same value [estimate] would read back, without a
     second pass or a boxed float return. *)
  let est = ref Float.max_float in
  for row = 0 to t.depth - 1 do
    let cells = t.rows.(row) in
    let i = slot t key row in
    cells.(i) <- cells.(i) +. normalized;
    est := Float.min !est cells.(i)
  done;
  if
    !est > t.threshold *. t.window
    && not (Ids.Res_key_tbl.mem t.suspects key)
  then begin
    Ids.Res_key_tbl.replace t.suspects key ();
    `Suspect
  end
  else `Ok

let suspects (t : t) : Ids.res_key list =
  Ids.Res_key_tbl.fold (fun k () acc -> k :: acc) t.suspects []

let memory_bytes (t : t) = t.depth * t.width * 8
let observed_packets (t : t) = t.observed_packets
let window (t : t) = t.window
let threshold (t : t) = t.threshold

(* Snapshot-time saturation probe (observation-only): the largest cell
   of the sketch. A max cell near [threshold × window] means hash
   collisions alone can start flagging false suspects. *)
let max_cell (t : t) : float =
  let m = ref 0. in
  for row = 0 to t.depth - 1 do
    for i = 0 to t.width - 1 do
      if t.rows.(row).(i) > !m then m := t.rows.(row).(i)
    done
  done;
  !m
