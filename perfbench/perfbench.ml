(* Two-plane Colibri benchmark: one process, one domain, one caller.

     perfbench --workload W --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics of workload W; [--trace
   1] runs the layer ledger (Traced). The last line of standard output
   is the JSON result; the line before it carries the sample count of
   every metric. The exit code is 1 when an output check fails, 2 on a
   usage error. See README.md. *)

open Colibri

let setup_repeats = 5

type args = { workload : string; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: perfbench --workload fwd-min|setup-churn|mixed-lossy --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () : args =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_of v); go rest
    | "--trace" :: v :: rest -> trace := Some (int_of v); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some (0 | 1 as tr) when seconds > 0 ->
      { workload = !workload; seed; seconds; trace = tr = 1 }
  | _ -> usage ()

(* Build [setup_repeats] times and time each build; the last carries
   the timed phase. Each build starts from a collected heap that holds
   no earlier build, and the collections, which are the benchmark's own
   work, stay outside the timer. A build's time is scaled by host
   contention as the ops' are, with the mean of a probe just before and
   one just after it. Returns the last build with the median set-up
   time. *)
let timed_set_up (cfg : Gen.config) (inp : Gen.inputs) ~seed : Rig.world * float =
  let times = Array.make setup_repeats 0. in
  let last = ref None in
  for i = 0 to setup_repeats - 1 do
    last := None;
    Gc.compact ();
    let before = Stats.probe () in
    let t0 = Stats.now_ns () in
    let w = Rig.set_up cfg inp ~seed in
    let t = Stats.now_ns () - t0 in
    let after = Stats.probe () in
    times.(i) <-
      float_of_int t /. 1e9 *. Stats.probe_ref_ns /. (float_of_int (before + after) /. 2.);
    last := Some w
  done;
  Gc.compact ();
  (Option.get !last, Stats.median_of times)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Live words after a full major collection (Gc.stat runs one). *)
let live_mb () = mb (Gc.stat ()).live_words

type e2e = {
  world : Rig.world;
  tally : Rig.tally;
  setup_s : float;
  ctrl_sent : int; (* control messages sent during the timed phase *)
  renewals : int; (* renewal walks started during the timed phase *)
  live_mb : float; (* live heap, the larger of end of set-up and end of run *)
  errors : string list;
}

(* The untraced measurement: set-up, timed phase, drain, checks. *)
let measure (cfg : Gen.config) (inp : Gen.inputs) ~seed : e2e =
  let world, setup_s = timed_set_up cfg inp ~seed in
  let live0 = live_mb () in
  let d = world.d in
  let cn = Deployment.control_net d and nreg = Deployment.network_metrics d in
  let sent0 = Control_net.sent_count cn in
  let renew0 = Rig.counter nreg "renewal_started_total" in
  let tally = Rig.tally () in
  Rig.run_ops Rig.networked world tally inp.timed;
  let ctrl_sent = Control_net.sent_count cn - sent0 in
  let renewals = Rig.counter nreg "renewal_started_total" - renew0 in
  let live_mb = Float.max live0 (live_mb ()) in
  Rig.drain world;
  { world; tally; setup_s; ctrl_sent; renewals; live_mb; errors = Rig.checks world tally }

(* Metric assembly: a required metric that cannot be backed by enough
   samples is an error, not an estimate. *)
type sink = { mutable ms : Stats.metric list; mutable missing : string list }

let sink () = { ms = []; missing = [] }

let put (s : sink) name unit_ n (v : float option) =
  match v with
  | Some value when Float.is_finite value ->
      s.ms <- { Stats.name; value; unit_; n } :: s.ms
  | _ -> s.missing <- name :: s.missing

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

let end_to_end (e : e2e) : sink =
  let t = e.tally and s = sink () in
  let q x p = Stats.quantile x p and n = Stats.count in
  put s "setup_s" "s" setup_repeats (Some e.setup_s);
  (* Times scaled by host contention (Stats.scaled); a rate is ops per
     second of scaled time spent in them. *)
  let rate x =
    let total = Stats.sum_of (Stats.scaled x) in
    if n x = 0 then None else Some (float_of_int (n x) /. (total /. 1e6))
  in
  let latency name x =
    let sx = Stats.scaled x in
    put s (name ^ "_p50_us") "us" (n sx) (q sx 0.5);
    put s (name ^ "_p99_us") "us" (n sx) (q sx 0.99)
  in
  put s "pkt_rate_kpps" "kpps" (n t.pkt_us) (Option.map (fun r -> r /. 1e3) (rate t.pkt_us));
  latency "pkt" t.pkt_us;
  put s "pkt_delivered_ratio" "ratio" t.sent (ratio t.delivered t.sent);
  latency "eer_setup" t.eer_granted_us;
  latency "segr_setup" t.segr_us;
  put s "setup_rate_per_s" "1/s" (n t.setup_us) (rate t.setup_us);
  put s "setup_granted_ratio" "ratio" t.attempted_setups
    (ratio t.granted t.attempted_setups);
  put s "setup_sim_p99_ms" "sim_ms" (n t.sim_ms) (q t.sim_ms 0.99);
  put s "ctrl_msgs_per_setup" "count" (t.attempted_setups + e.renewals)
    (ratio e.ctrl_sent (t.attempted_setups + e.renewals));
  put s "heap_live_mb" "MB" 2 (Some e.live_mb);
  s.ms <- List.rev s.ms;
  s

let finish ~(attempted : int) ~(failed : int) (errors : string list) (s : sink) =
  let errors =
    errors @ List.rev_map (fun m -> "metric without enough samples: " ^ m) s.missing
  in
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) errors;
  let correct = errors = [] in
  Stats.print_result ~correct ~attempted ~failed s.ms;
  exit (if correct then 0 else 1)

let () =
  let a = parse_args () in
  let cfg = match Gen.find a.workload with Some c -> c | None -> usage () in
  let inp = Gen.generate cfg ~seed:a.seed ~seconds:a.seconds in
  let attempted = Array.length inp.timed in
  if not a.trace then begin
    let e = measure cfg inp ~seed:a.seed in
    finish ~attempted ~failed:(Rig.failed e.tally) e.errors (end_to_end e)
  end
  else begin
    let s = sink () in
    let tally, errors = Traced.run ~put:(put s) cfg inp ~seed:a.seed in
    put s "gc.top_heap_mb" "MB" 1 (Some (mb (Gc.quick_stat ()).top_heap_words));
    s.ms <- List.rev s.ms;
    finish ~attempted ~failed:(Rig.failed tally) errors s
  end
