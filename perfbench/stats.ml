(* Clock, order statistics and the result line. *)

(* Every time the benchmark reports is read from the CPU clock of its
   one thread (CLOCK_THREAD_CPUTIME_ID, ns). The thread never blocks, so
   this is its wall time minus the intervals in which the host did not
   run it: on a shared 2-vCPU host those last up to tens of ms, hit a
   few ops in a hundred and would otherwise set every p99. *)
external now_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

(* ---------------- Host contention ---------------- *)

(* The host this benchmark was built on runs memory-bound code at
   changing speeds, up to about 2x apart, for stretches of a fraction
   of a second to minutes, by how hard a co-tenant contends for the
   core's caches. A pure ALU loop keeps its speed; every op of the
   benchmark slows. Whole batches of runs can fall into one state, so
   no figure taken inside a run can recover the uncontended level. The
   run therefore times a fixed memory probe every [window_ns] of thread
   time — four strided walks over a 256 KB array, which slows in step
   with the ops — and scales every op time taken in between by
   [probe_ref_ns] / (the mean of the two probes around it). *)
let window_ns = 20_000_000

(* The probe's time on the build host when nothing contends, so that
   scaled times read as that host's uncontended µs. *)
let probe_ref_ns = 200_000.

let probe_buf = Array.init 32768 Fun.id

let probe () =
  let n = Array.length probe_buf in
  let acc = ref 0 in
  let t0 = now_ns () in
  for r = 0 to 3 do
    for i = 0 to n - 1 do
      acc := !acc + probe_buf.((i * 17 + r) land (n - 1))
    done
  done;
  let t = now_ns () - t0 in
  ignore (Sys.opaque_identity !acc);
  t

(* Probe times; window [w] lies between probes [w] and [w + 1]. *)
type windows = { mutable probes : int array; mutable nw : int; mutable last : int }

let win = { probes = Array.make 1024 0; nw = 0; last = 0 }

(* Called before every timed op: probes once [window_ns] of thread time
   has passed since the last probe, which opens the next window. *)
let tick () =
  if win.nw = 0 || now_ns () - win.last >= window_ns then begin
    if win.nw = Array.length win.probes then begin
      let ps = Array.make (2 * win.nw) 0 in
      Array.blit win.probes 0 ps 0 win.nw;
      win.probes <- ps
    end;
    win.probes.(win.nw) <- probe ();
    win.nw <- win.nw + 1;
    win.last <- now_ns ()
  end

(* ---------------- Samples ---------------- *)

(* A growable float sample buffer; each sample remembers the window it
   was taken in. *)
type samples = { mutable xs : float array; mutable ws : int array; mutable n : int }

let samples () = { xs = Array.make 1024 0.; ws = Array.make 1024 0; n = 0 }

let add (s : samples) (x : float) =
  if s.n = Array.length s.xs then begin
    let ys = Array.make (2 * s.n) 0. and vs = Array.make (2 * s.n) 0 in
    Array.blit s.xs 0 ys 0 s.n;
    Array.blit s.ws 0 vs 0 s.n;
    s.xs <- ys;
    s.ws <- vs
  end;
  s.xs.(s.n) <- x;
  s.ws.(s.n) <- max 0 (win.nw - 1);
  s.n <- s.n + 1

let count (s : samples) = s.n
let to_array (s : samples) = Array.sub s.xs 0 s.n

(* Samples required beyond a percentile before it may be reported. *)
let tail_floor = 10

(* Smallest sample count that leaves [tail_floor] samples above the
   [q]-quantile. *)
let min_samples q =
  let rec go n =
    if float_of_int n -. Float.ceil (q *. float_of_int n) >= float_of_int tail_floor
    then n
    else go (n + 1)
  in
  go 1

(* Linearly interpolated quantile ("type 7"); [None] when fewer than
   [min_samples q] samples back it. *)
let quantile (s : samples) (q : float) : float option =
  if s.n < min_samples q then None
  else begin
    let a = to_array s in
    Array.sort Float.compare a;
    let h = q *. float_of_int (s.n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (s.n - 1) in
    Some (a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo))))
  end

let median_of (xs : float array) : float =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum_of (s : samples) =
  let acc = ref 0. in
  for i = 0 to s.n - 1 do
    acc := !acc +. s.xs.(i)
  done;
  !acc

(* The contention factor of window [w]. *)
let scale_of_window w =
  let p = win.probes.(w) and q = if w + 1 < win.nw then win.probes.(w + 1) else win.probes.(w) in
  probe_ref_ns /. (float_of_int (p + q) /. 2.)

(* [s] with every sample scaled by its window's contention factor. *)
let scaled (s : samples) : samples =
  let out = samples () in
  for i = 0 to s.n - 1 do
    add out (s.xs.(i) *. if win.nw = 0 then 1. else scale_of_window s.ws.(i))
  done;
  out

(* ---------------- The result line ---------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

let json_float (x : float) = Printf.sprintf "%.17g" x

let print_result ~(correct : bool) ~(attempted : int) ~(failed : int)
    (ms : metric list) =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value)
          m.unit_)
      ms
  in
  let samples = List.map (fun m -> Printf.sprintf "%S: %d" m.name m.n) ms in
  (* Sample counts travel on their own line: the last line carries
     exactly the four result keys. *)
  Printf.printf "{\"samples\": {%s}}\n" (String.concat ", " samples);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)
