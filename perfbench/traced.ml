(* The layer ledger ([--trace 1]).

   Three twin deployments run the same generated inputs in lockstep,
   plus stage isolation:

   - a traced twin replays every op through the public functions that
     [Deployment.send_data] and [Deployment.setup_*] call, one span per
     call, on a deployment whose admission backend records its inputs;
   - an untraced instant twin runs the same ops through
     [Deployment.send_data] / [setup_eer] / [setup_segr], so each
     traced op has an untraced twin in an identical state: their
     difference is the tracing overhead;
   - an untraced networked twin runs the ops as the end-to-end
     measurement does: it gives the network, retry, renewal and
     monitoring counters and the output checks, and the networked-
     minus-instant difference is the network layer's cost;
   - stages the benchmark cannot reach inside [Router] are timed on
     the recorded packets against monitor instances built with
     [Router.create]'s default parameters; admission is replayed on a
     fresh backend instance from the recorded request stream. *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

(* Stated tolerances of the ledger; a traced run outside them fails. *)
let coverage_tolerance = (0.8, 1.25)
let stage_sum_tolerance = (0.6, 1.4)

(* ---------------- Spans ---------------- *)

type spans = {
  mutable name : int array;
  mutable parent : int array;
  mutable op : int array; (* one id per packet or setup *)
  mutable t0 : int array;
  mutable t1 : int array;
  mutable words : float array; (* minor words allocated inside the span *)
  mutable n : int;
}

(* Span names; "root" is the op itself. Its self time is the replay's
   own glue between the calls (which mirrors [Deployment]'s) plus one
   clock read per child span. *)
let names =
  [|
    "root";
    "gateway.send";
    "packet.encode";
    "router.process";
    "cserv.eer_make";
    "cserv.eer_forward";
    "cserv.eer_cleanup";
    "cserv.eer_backward";
    "cserv.eer_reply";
    "gateway.register";
    "cserv.segr_make";
    "cserv.segr_forward";
    "cserv.segr_cleanup";
    "cserv.segr_backward";
    "cserv.segr_reply";
    "cserv.segr_activate";
  |]

let name_id s =
  let rec go i = if String.equal names.(i) s then i else go (i + 1) in
  go 0

let n_root = 0
let n_gw_send = name_id "gateway.send"
let n_encode = name_id "packet.encode"
let n_router = name_id "router.process"
let n_eer_make = name_id "cserv.eer_make"
let n_eer_forward = name_id "cserv.eer_forward"
let n_eer_cleanup = name_id "cserv.eer_cleanup"
let n_eer_backward = name_id "cserv.eer_backward"
let n_eer_reply = name_id "cserv.eer_reply"
let n_register = name_id "gateway.register"
let n_segr_make = name_id "cserv.segr_make"
let n_segr_forward = name_id "cserv.segr_forward"
let n_segr_cleanup = name_id "cserv.segr_cleanup"
let n_segr_backward = name_id "cserv.segr_backward"
let n_segr_reply = name_id "cserv.segr_reply"
let n_segr_activate = name_id "cserv.segr_activate"

let spans () =
  let z () = Array.make 65536 0 in
  { name = z (); parent = z (); op = z (); t0 = z (); t1 = z ();
    words = Array.make 65536 0.; n = 0 }

let grow (s : spans) =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 s.n;
    b
  in
  s.name <- g s.name;
  s.parent <- g s.parent;
  s.op <- g s.op;
  s.t0 <- g s.t0;
  s.t1 <- g s.t1;
  let w = Array.make (2 * Array.length s.words) 0. in
  Array.blit s.words 0 w 0 s.n;
  s.words <- w

(* Time [f] as a span; the clock is read as the last act before and the
   first act after the call. The minor-word reads sit inside the timed
   bracket, so their few ns land in the span, not in its parent. *)
let span (s : spans) ~name ~parent ~op f =
  if s.n = Array.length s.name then grow s;
  let i = s.n in
  s.n <- i + 1;
  s.name.(i) <- name;
  s.parent.(i) <- parent;
  s.op.(i) <- op;
  s.t0.(i) <- Stats.now_ns ();
  let w0 = Gc.minor_words () in
  let v = f i in
  s.words.(i) <- Gc.minor_words () -. w0;
  s.t1.(i) <- Stats.now_ns ();
  v

(* Minor words a span reports around a call that allocates nothing,
   taken off every reading. *)
let span_words_probe =
  let s = spans () in
  for _ = 1 to 3 do
    span s ~name:0 ~parent:(-1) ~op:0 (fun _ -> ())
  done;
  s.words.(2)

(* Self time (ns) of every span: duration minus its children's. *)
let self_times (s : spans) : int array =
  let self = Array.init s.n (fun i -> s.t1.(i) - s.t0.(i)) in
  for i = 0 to s.n - 1 do
    let p = s.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (s.t1.(i) - s.t0.(i))
  done;
  self

(* ---------------- Traced walks ---------------- *)

(* A recorded router visit, for the stage replays. *)
type capture = { raw : bytes; asn : Ids.asn; payload : int; now : Timebase.t }

type ledger = {
  sp : spans;
  mutable next_op : int;
  mutable captures : capture list;
  mutable n_captures : int;
}

let max_captures = 6 * 4096

let fresh_op (l : ledger) =
  let o = l.next_op in
  l.next_op <- o + 1;
  o

(* [Deployment.send_data], call by call. The router visits are recorded
   for the stage replays after the root span has ended. *)
let traced_send (l : ledger) d ~res_id ~payload : Rig.pkt_outcome =
  let op = fresh_op l and sp = l.sp in
  let sent = ref None and visits = ref 0 in
  let outcome =
    span sp ~name:n_root ~parent:(-1) ~op (fun root ->
        match
          span sp ~name:n_gw_send ~parent:root ~op (fun _ ->
              Gateway.send (Deployment.gateway d G.s) ~res_id ~payload_len:payload)
        with
        | Error e -> Rig.Refused e
        | Ok (packet, _) ->
            let raw =
              span sp ~name:n_encode ~parent:root ~op (fun _ -> Packet.to_bytes packet)
            in
            sent := Some (raw, packet.path);
            let rec walk = function
              | [] -> Rig.Delivered
              | (hop : Path.hop) :: rest -> (
                  incr visits;
                  match
                    span sp ~name:n_router ~parent:root ~op (fun _ ->
                        Router.process_bytes (Deployment.router d hop.asn) ~raw
                          ~payload_len:payload)
                  with
                  | Ok (Router.Forward _) -> walk rest
                  | Ok (Router.Deliver _ | Router.To_cserv) -> Rig.Delivered
                  | Error reason -> Rig.Dropped reason)
            in
            walk packet.path)
  in
  (match !sent with
  | Some (raw, path) ->
      List.iteri
        (fun i (hop : Path.hop) ->
          if i < !visits && l.n_captures < max_captures then begin
            l.captures <- { raw; asn = hop.asn; payload; now = Deployment.now d } :: l.captures;
            l.n_captures <- l.n_captures + 1
          end)
        path
  | None -> ());
  outcome

let setup_error_string (at : Ids.asn) reason =
  Fmt.str "%a" Deployment.pp_setup_error { Deployment.at; reason }

(* The instant walk of [Deployment.setup_eer], call by call. *)
let traced_eer (l : ledger) d ~(route : Deployment.eer_route) ~bw =
  let op = fresh_op l and sp = l.sp in
  let c = Deployment.cserv d G.s in
  let s name parent f = span sp ~name ~parent ~op (fun _ -> f ()) in
  span sp ~name:n_root ~parent:(-1) ~op (fun root ->
      match
        s n_eer_make root (fun () ->
            Cserv.make_eer_request c ~path:route.path ~src_host:Rig.src_host
              ~dst_host:Rig.dst_host ~bw ~segr_keys:route.segr_keys ~renew:None)
      with
      | Error e -> Error e
      | Ok (req, auth) -> (
          let rec forward acc = function
            | [] -> Ok (List.rev acc)
            | (hop : Path.hop) :: rest -> (
                match
                  s n_eer_forward root (fun () ->
                      Cserv.handle_eer_request_forward (Deployment.cserv d hop.asn) ~req
                        ~auth)
                with
                | `Continue g -> forward (g :: acc) rest
                | `Deny reason ->
                    List.iteri
                      (fun i (h : Path.hop) ->
                        if i < List.length acc then
                          s n_eer_cleanup root (fun () ->
                              Cserv.handle_eer_failure (Deployment.cserv d h.asn) ~req))
                      req.path;
                    (match reason with
                    | Protocol.Expired_segr k -> Cserv.invalidate_cached_segr c ~key:k
                    | _ -> ());
                    Error (setup_error_string hop.asn reason))
          in
          match forward [] req.path with
          | Error e -> Error e
          | Ok grants -> (
              let final_bw = List.fold_left Bandwidth.min bw grants in
              let hops =
                List.rev req.path
                |> List.map (fun (hop : Path.hop) ->
                       s n_eer_backward root (fun () ->
                           Cserv.handle_eer_reply_backward (Deployment.cserv d hop.asn)
                             ~req ~final_bw))
                |> List.rev
              in
              match
                s n_eer_reply root (fun () ->
                    Cserv.process_eer_reply c ~req
                      ~reply:(Protocol.Granted { final_bw; hops }))
              with
              | Error e -> Error e
              | Ok (eer, version, sigmas) -> (
                  match
                    s n_register root (fun () ->
                        Gateway.register (Deployment.gateway d G.s) ~eer ~version ~sigmas)
                  with
                  | Error e -> Error e
                  | Ok () -> Ok eer))))

(* The instant walk of [Deployment.setup_segr ~renew] plus activation. *)
let traced_segr (l : ledger) d ~key ~path ~max_bw =
  let op = fresh_op l and sp = l.sp in
  let c = Deployment.cserv d G.s in
  let s name parent f = span sp ~name ~parent ~op (fun _ -> f ()) in
  span sp ~name:n_root ~parent:(-1) ~op (fun root ->
      match
        s n_segr_make root (fun () ->
            Cserv.make_seg_request c ~path ~kind:Reservation.Up ~max_bw ~min_bw:Rig.segr_min
              ~renew:(Some key))
      with
      | Error e -> Error e
      | Ok (req, auth) -> (
          let rec forward acc = function
            | [] -> Ok (List.rev acc)
            | (hop : Path.hop) :: rest -> (
                match
                  s n_segr_forward root (fun () ->
                      Cserv.handle_seg_request_forward (Deployment.cserv d hop.asn) ~req
                        ~auth)
                with
                | `Continue g -> forward (g :: acc) rest
                | `Deny reason ->
                    List.iteri
                      (fun i (h : Path.hop) ->
                        if i < List.length acc && not (Ids.equal_asn h.asn hop.asn) then
                          s n_segr_cleanup root (fun () ->
                              Cserv.handle_seg_failure (Deployment.cserv d h.asn) ~req))
                      req.path;
                    Error (setup_error_string hop.asn reason))
          in
          match forward [] req.path with
          | Error e -> Error e
          | Ok grants -> (
              let final_bw = List.fold_left Bandwidth.min max_bw grants in
              let hops =
                List.rev req.path
                |> List.map (fun (hop : Path.hop) ->
                       s n_segr_backward root (fun () ->
                           Cserv.handle_seg_reply_backward (Deployment.cserv d hop.asn)
                             ~req ~final_bw))
                |> List.rev
              in
              match
                s n_segr_reply root (fun () ->
                    Cserv.process_seg_reply c ~req
                      ~reply:(Protocol.Granted { final_bw; hops }))
              with
              | Error e -> Error e
              | Ok segr -> (
                  match
                    s n_segr_activate root (fun () ->
                        Deployment.activate_segr d ~key:segr.key)
                  with
                  | Ok () -> Ok segr
                  | Error e -> Error e))))

let traced_walks (l : ledger) : Rig.walks =
  {
    send = traced_send l;
    eer = traced_eer l;
    segr = (fun d ~key ~path ~max_bw -> traced_segr l d ~key ~path ~max_bw);
  }

(* ---------------- Recording admission backend ---------------- *)

(* Wraps the reference backend and logs every state-changing call, so
   admission can be replayed alone on a fresh instance with the same
   history. *)
type admit =
  | Seg of Backends.Backend_intf.seg_request
  | Eer of Backends.Backend_intf.eer_request

type logged =
  | Admit of admit * Timebase.t * Backends.Backend_intf.decision * bool
      (** request, time, decision, inside the timed phase *)
  | Commit of Ids.res_key * int * Bandwidth.t
  | Remove_seg of Ids.res_key * int * Timebase.t
  | Remove_eer of Ids.res_key * int * Timebase.t

type recorder = {
  inner : Backends.Backend_intf.instance;
  fresh : unit -> Backends.Backend_intf.instance;
  mutable log : logged list; (* newest first *)
}

let timed_phase = ref false
let recorders : recorder list ref = ref []

module BI = Backends.Backend_intf

let probe = Backends.All.ntube.make ~capacity:(fun _ -> Bandwidth.zero) ()

module Recording : BI.S with type t = recorder = struct
  type t = recorder

  let name = BI.name probe
  let commit_required = BI.commit_required probe
  let capacity_bound_enforced = BI.capacity_bound_enforced probe

  let create ~capacity ?share () =
    let fresh () = Backends.All.ntube.make ~capacity ?share () in
    { inner = fresh (); fresh; log = [] }

  let admit_seg t ~req ~now =
    let dec = BI.admit_seg t.inner ~req ~now in
    t.log <- Admit (Seg req, now, dec, !timed_phase) :: t.log;
    dec

  let commit_seg t ~key ~version ~granted =
    t.log <- Commit (key, version, granted) :: t.log;
    BI.commit_seg t.inner ~key ~version ~granted

  let admit_eer t ~req ~now =
    let dec = BI.admit_eer t.inner ~req ~now in
    t.log <- Admit (Eer req, now, dec, !timed_phase) :: t.log;
    dec

  let remove_seg t ~key ~version ~now =
    t.log <- Remove_seg (key, version, now) :: t.log;
    BI.remove_seg t.inner ~key ~version ~now

  let remove_eer t ~key ~version ~now =
    t.log <- Remove_eer (key, version, now) :: t.log;
    BI.remove_eer t.inner ~key ~version ~now

  let seg_granted_of t = BI.seg_granted_of t.inner
  let eer_granted_of t = BI.eer_granted_of t.inner
  let seg_allocated_on t = BI.seg_allocated_on t.inner
  let eer_allocated_over t = BI.eer_allocated_over t.inner
  let seg_count t = BI.seg_count t.inner
  let eer_flow_count t = BI.eer_flow_count t.inner
  let admissions t = BI.admissions t.inner
  let control_messages t = BI.control_messages t.inner
  let audit t = BI.audit t.inner
  let obs_snapshot t = BI.obs_snapshot t.inner
  let corrupt_for_test _ = invalid_arg "Recording.corrupt_for_test"
end

let recording_factory : BI.factory =
  {
    label = "recording";
    make =
      (fun ~capacity ?share () ->
        let r = Recording.create ~capacity ?share () in
        recorders := r :: !recorders;
        BI.Instance ((module Recording), r));
  }

let same_decision (a : BI.decision) (b : BI.decision) =
  match (a, b) with
  | BI.Granted x, BI.Granted y -> Bandwidth.to_bps x = Bandwidth.to_bps y
  | BI.Denied _, BI.Denied _ -> true
  | _ -> false

(* Replay every recorder's history on a fresh instance; time the admits
   of the timed phase. Returns (seg µs, eer µs, decision mismatches). *)
let replay_admission () =
  let seg = Stats.samples () and eer = Stats.samples () and mismatches = ref 0 in
  List.iter
    (fun (r : recorder) ->
      let b = r.fresh () in
      List.iter
        (function
          | Admit (a, now, expected, timed) ->
              let t0 = Stats.now_ns () in
              let dec =
                match a with
                | Seg req -> BI.admit_seg b ~req ~now
                | Eer req -> BI.admit_eer b ~req ~now
              in
              let us = float_of_int (Stats.now_ns () - t0) /. 1e3 in
              if not (same_decision dec expected) then incr mismatches;
              if timed then Stats.add (match a with Seg _ -> seg | Eer _ -> eer) us
          | Commit (key, version, granted) ->
              ignore (BI.commit_seg b ~key ~version ~granted)
          | Remove_seg (key, version, now) -> BI.remove_seg b ~key ~version ~now
          | Remove_eer (key, version, now) -> BI.remove_eer b ~key ~version ~now)
        (List.rev r.log))
    !recorders;
  (seg, eer, !mismatches)

(* ---------------- Counters of the networked twin ---------------- *)

(* The network counters and CServ denials of a deployment, by name. *)
let base_counters (d : Deployment.t) : (string * int) list =
  ("cserv.denied", Rig.cserv_denied d)
  :: List.filter_map
       (function n, Obs.Counter c -> Some (n, c) | _ -> None)
       (Obs.Registry.snapshot (Deployment.network_metrics d))

(* Monitoring outcomes and network counters of the untraced networked
   twin, as deltas from [base], the counters at the start of its timed
   phase. *)
let counters ~(put : string -> string -> int -> float option -> unit)
    ~(networked : Rig.world) ~(untraced : Rig.tally) ~(base : (string * int) list) =
  let snap_max name =
    List.fold_left
      (fun acc (h : Path.hop) ->
        Float.max acc
          (Rig.gauge (Obs.Registry.snapshot (Router.metrics (Deployment.router networked.d h.asn))) name))
      0. networked.route.path
  in
  put "monitor.dupfilter_fill_ratio" "ratio" 1 (Some (snap_max "router_dup_filter_fill_ratio"));
  put "router.dropped_duplicate" "count" untraced.sent (Some (float_of_int untraced.duplicates));
  put "router.dropped_policed" "count" untraced.sent (Some (float_of_int untraced.policed));
  let nreg = Deployment.network_metrics networked.d in
  let delta name = Rig.counter nreg name - List.assoc name base in
  let d_sent = delta "control_net_messages_sent_total" in
  let d_lost = delta "control_net_messages_lost_total" in
  let n_setups = untraced.attempted_setups in
  put "control_net.sent" "count" n_setups (Some (float_of_int d_sent));
  put "control_net.lost" "count" n_setups (Some (float_of_int d_lost));
  let requests = delta "retry_requests_total" and attempts = delta "retry_attempts_total" in
  let concluded = delta "retry_success_total" + delta "retry_exhausted_total" in
  put "retry.attempts_per_request" "ratio" requests
    (if requests = 0 then None else Some (float_of_int attempts /. float_of_int requests));
  put "retry.useful_ratio" "ratio" attempts
    (if attempts = 0 then None else Some (float_of_int concluded /. float_of_int attempts));
  put "renewal.ok" "count" 1 (Some (float_of_int (delta "renewal_ok_total")));
  put "renewal.late" "count" 1 (Some (float_of_int (delta "renewal_late_total")));
  put "cserv.denied_total" "count" n_setups
    (Some (float_of_int (Rig.cserv_denied networked.d - List.assoc "cserv.denied" base)));
  put "gc.minor_words_per_setup" "words" untraced.attempted_setups
    (if untraced.attempted_setups = 0 then None
     else Some (untraced.setup_minor_words /. float_of_int untraced.attempted_setups))

(* ---------------- Stage isolation ---------------- *)

let stage_reps = 15

(* ---------------- The pass ---------------- *)

let median_us (s : Stats.samples) = Stats.quantile s 0.5

(* Runs the ledger and returns the networked twin's tally with the
   errors of every check: the networked twin's output checks and the
   ledger's own. *)
let run ~(put : string -> string -> int -> float option -> unit) (cfg : Gen.config)
    (inp : Gen.inputs) ~(seed : int) : Rig.tally * string list =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let l = { sp = spans (); next_op = 0; captures = []; n_captures = 0 } in
  (* Three twins run the timed stream in lockstep, op by op, so that
     each op's traced, instant and networked timings share the host's
     state of the moment; the order alternates per op. *)
  let tw = Rig.set_up ~backend:recording_factory cfg inp ~seed in
  let iw = Rig.set_up cfg inp ~seed in
  let nw = Rig.set_up cfg inp ~seed in
  Gc.compact ();
  let base = base_counters nw.d in
  let ttally = Rig.tally () and itally = Rig.tally () and ntally = Rig.tally () in
  let twins =
    [| (traced_walks l, tw, ttally); (Rig.instant, iw, itally); (Rig.networked, nw, ntally) |]
  in
  timed_phase := true;
  Array.iteri
    (fun i op ->
      for k = 0 to 2 do
        let walks, w, t = twins.(if i land 1 = 0 then k else 2 - k) in
        Rig.run_op walks w t op
      done)
    inp.timed;
  timed_phase := false;
  if ttally.granted <> itally.granted || ttally.delivered <> itally.delivered then
    fail "traced and untraced instant passes diverged (%d/%d grants, %d/%d delivered)"
      ttally.granted itally.granted ttally.delivered itally.delivered;
  Rig.drain nw;
  counters ~put ~networked:nw ~untraced:ntally ~base;
  List.iter (fun e -> errors := e :: !errors) (Rig.checks nw ntally);
  (* Per-op aggregation of span self times and allocations. *)
  let sp = l.sp in
  let self = self_times sp in
  let nops = l.next_op in
  let per_op = Array.make_matrix (Array.length names) nops 0 in
  let root_dur = Array.make nops 0 in
  let kind = Array.make nops (-1) in
  let router_self = Stats.samples () in
  let gw_words = ref 0. and gw_calls = ref 0 and rt_words = ref 0. and rt_calls = ref 0 in
  for i = 0 to sp.n - 1 do
    let o = sp.op.(i) and nm = sp.name.(i) in
    let words = sp.words.(i) -. span_words_probe in
    per_op.(nm).(o) <- per_op.(nm).(o) + self.(i);
    if nm = n_root then root_dur.(o) <- sp.t1.(i) - sp.t0.(i);
    if nm = n_router then begin
      Stats.add router_self (float_of_int self.(i) /. 1e3);
      rt_words := !rt_words +. words;
      incr rt_calls
    end;
    if nm = n_gw_send then begin
      gw_words := !gw_words +. words;
      incr gw_calls
    end;
    (* An op's kind is given by its first child. *)
    if sp.parent.(i) >= 0 && kind.(o) < 0 then kind.(o) <- nm
  done;
  let ops_where p = List.filter (fun o -> p kind.(o)) (List.init nops Fun.id) in
  let pkt_ops = ops_where (( = ) n_gw_send) and eer_ops = ops_where (( = ) n_eer_make) in
  let segr_ops = ops_where (( = ) n_segr_make) in
  let setup_ops = ops_where (fun k -> k = n_eer_make || k = n_segr_make) in
  (* Median over [ops] of a per-op quantity, in µs. *)
  let med_over ops f =
    let s = Stats.samples () in
    List.iter (fun o -> Stats.add s (f o)) ops;
    (Stats.count s, median_us s)
  in
  let put_layer metric name ops =
    let n, v = med_over ops (fun o -> float_of_int per_op.(name).(o) /. 1e3) in
    put metric "us" n v
  in
  put_layer "gateway.send_us" n_gw_send pkt_ops;
  put_layer "packet.encode_us" n_encode pkt_ops;
  put "router.process_us" "us" (Stats.count router_self) (median_us router_self);
  put_layer "deployment.fwd_other_us" n_root pkt_ops;
  put_layer "cserv.eer_make_us" n_eer_make eer_ops;
  put_layer "cserv.eer_forward_us" n_eer_forward eer_ops;
  put_layer "cserv.eer_backward_us" n_eer_backward eer_ops;
  put_layer "cserv.eer_reply_us" n_eer_reply eer_ops;
  put_layer "gateway.register_us" n_register eer_ops;
  put_layer "cserv.segr_make_us" n_segr_make segr_ops;
  put_layer "cserv.segr_forward_us" n_segr_forward segr_ops;
  put_layer "cserv.segr_backward_us" n_segr_backward segr_ops;
  put_layer "cserv.segr_reply_us" n_segr_reply segr_ops;
  put_layer "cserv.segr_activate_us" n_segr_activate segr_ops;
  put_layer "deployment.setup_other_us" n_root setup_ops;
  (* Coverage: layer self times of op i against its untraced twin. *)
  let twin_pkt = Stats.to_array itally.pkt_us
  and twin_setup = Stats.to_array itally.setup_us in
  let layers_us o =
    let sum = ref 0 in
    Array.iteri (fun nm row -> if nm <> n_root then sum := !sum + row.(o)) per_op;
    float_of_int !sum /. 1e3
  in
  let coverage ops twin =
    let s = Stats.samples () in
    List.iteri (fun i o -> if i < Array.length twin then Stats.add s (layers_us o /. twin.(i)))
      ops;
    (Stats.count s, median_us s)
  in
  let in_tol (lo, hi) name = function
    | _, Some v when v >= lo && v <= hi -> ()
    | _, Some v -> fail "%s = %.3f outside the stated tolerance [%.2f, %.2f]" name v lo hi
    | _, None -> ()
  in
  let fwd_cov = coverage pkt_ops twin_pkt and setup_cov = coverage setup_ops twin_setup in
  put "fwd.coverage_ratio" "ratio" (fst fwd_cov) (snd fwd_cov);
  put "setup.coverage_ratio" "ratio" (fst setup_cov) (snd setup_cov);
  in_tol coverage_tolerance "fwd.coverage_ratio" fwd_cov;
  in_tol coverage_tolerance "setup.coverage_ratio" setup_cov;
  (* Tracing overhead: traced vs untraced medians of the same ops. *)
  let root_us ops = med_over ops (fun o -> float_of_int root_dur.(o) /. 1e3) in
  let overhead prefix ops (twin : Stats.samples) =
    let n, traced = root_us ops and untraced = median_us twin in
    put (prefix ^ "_traced_p50_us") "us" n traced;
    put (prefix ^ "_untraced_p50_us") "us" (Stats.count twin) untraced;
    put (prefix ^ "_overhead_us") "us" n
      (match (traced, untraced) with Some a, Some b -> Some (a -. b) | _ -> None)
  in
  overhead "trace.fwd" pkt_ops itally.pkt_us;
  overhead "trace.eer" eer_ops itally.eer_us;
  (* Network layer: networked minus instant walk, same request stream. *)
  (match (median_us ntally.eer_us, median_us itally.eer_us) with
  | Some a, Some b -> put "net.overhead_us" "us" (Stats.count ntally.eer_us) (Some (a -. b))
  | _ -> put "net.overhead_us" "us" 0 None);
  (* Allocation per call, exact. *)
  let per calls w = if calls = 0 then None else Some (w /. float_of_int calls) in
  put "gateway.minor_words_per_pkt" "words" !gw_calls (per !gw_calls !gw_words);
  put "router.minor_words_per_pkt" "words" !rt_calls (per !rt_calls !rt_words);
  (* Stage isolation on the recorded router visits. The stages run
     round-robin for [stage_reps] rounds, so every stage's median
     samples the same stretch of host time. *)
  let caps = Array.of_list (List.rev l.captures) in
  let ncap = Array.length caps in
  let views =
    Array.map
      (fun c ->
        let v = Packet.View.create () in
        (match Packet.View.parse v c.raw with
        | Ok () -> ()
        | Error _ -> fail "a recorded packet does not parse");
        v)
      caps
  in
  let hop_index (c : capture) v =
    let rec go i =
      if i >= Packet.View.hops v then 0
      else if Packet.View.hop_isd v i = c.asn.isd && Packet.View.hop_num v i = c.asn.num
      then i
      else go (i + 1)
    in
    go 0
  in
  let hops = Array.mapi (fun i c -> hop_index c views.(i)) caps in
  let secret_of asn = Cserv.hop_secret (Deployment.cserv tw.d asn) in
  let secrets = Array.map (fun (c : capture) -> secret_of c.asn) caps in
  let sizes = Array.map Packet.View.wire_size views in
  (* The monitors see each packet once, at its first visit. *)
  let first_visits =
    List.filter (fun i -> i = 0 || caps.(i - 1).raw != caps.(i).raw) (List.init ncap Fun.id)
    |> Array.of_list
  in
  let nfirst = Array.length first_visits in
  let t_start = if ncap > 0 then caps.(0).now else 0. in
  let dup_keys =
    Array.map
      (fun i ->
        let v = views.(i) in
        (* The router's own key (Router.process_view). *)
        Hashtbl.hash
          ( Packet.View.src_isd v,
            Packet.View.src_num v,
            Packet.View.res_id v,
            Timebase.Ts.to_int (Packet.View.ts v),
            sizes.(i) ))
      first_visits
  in
  let ofd_in =
    Array.map
      (fun i ->
        let v = views.(i) in
        let key : Ids.res_key =
          {
            src_as = Ids.asn ~isd:(Packet.View.src_isd v) ~num:(Packet.View.src_num v);
            res_id = Packet.View.res_id v;
          }
        in
        (key, 8. *. float_of_int sizes.(i) /. Bandwidth.to_bps (Packet.View.bw v)))
      first_visits
  in
  (* Monitors and routers with Router.create's default parameters. *)
  let window = 2.0 +. Timebase.max_skew in
  let new_filter () =
    Monitor.Duplicate_filter.create ~expected:1_000_000 ~fp_rate:1e-4 ~window ~now:t_start
  in
  let new_ofd () = Monitor.Ofd.create ~window:1.0 ~threshold:1.2 ~now:t_start () in
  let filter = ref (new_filter ()) and ofd = ref (new_ofd ()) in
  let clock_now = ref t_start in
  let new_routers () =
    let tbl = Ids.Asn_tbl.create 8 in
    List.iter
      (fun asn ->
        Ids.Asn_tbl.replace tbl asn
          (Router.create ~secret:(secret_of asn) ~clock:(fun () -> !clock_now) asn))
      (Path.ases tw.route.path);
    tbl
  in
  let routers = ref (new_routers ()) in
  let scratch = Hvf.scratch () and pv = Packet.View.create () in
  let key_bytes = Array.init 256 (fun i -> Bytes.make 16 (Char.chr i)) in
  let ck = Crypto.Cmac.of_secret (Bytes.make 16 'k') in
  let msg = Bytes.make 12 'm' and tag = Bytes.create 16 in
  let aes = Crypto.Aes.expand (Bytes.make 16 'a') and blk = Bytes.make 16 'b' in
  (* Control-plane crypto over the path's ASes: σ sealing and opening,
     DRKey derivation. *)
  let ks =
    Array.of_list
      (List.map (fun a -> Cserv.key_server (Deployment.cserv tw.d a)) (Path.ases tw.route.path))
  in
  let aeads = Array.map (fun k -> Drkey.hopauth_aead_key (Drkey.Key_server.derive k ~slow:G.s)) ks in
  let res_key : Ids.res_key = { src_as = G.s; res_id = Rig.res_id_of tw.ring.(0) } in
  let sigma = Bytes.make 16 's' in
  let sealed = Array.map (fun aead -> Hvf.seal_sigma ~aead ~res_key ~version:1 sigma) aeads in
  let bad_check = ref 0 and bad_replay = ref 0 and bad_open = ref 0 in
  let nop () = () in
  let stages =
    [|
      ( "router.replay_ns", (fun () -> routers := new_routers ()), ncap,
        fun i ->
          let c = caps.(i) in
          clock_now := c.now;
          match
            Router.process_bytes (Ids.Asn_tbl.find !routers c.asn) ~raw:c.raw
              ~payload_len:c.payload
          with
          | Ok _ -> ()
          | Error _ -> incr bad_replay );
      ("packet.view_parse_ns", nop, ncap, fun i -> ignore (Packet.View.parse pv caps.(i).raw));
      ( "hvf.eer_check_ns", nop, ncap,
        fun i ->
          if
            not
              (Hvf.eer_check secrets.(i) scratch views.(i) ~hop:hops.(i) ~pkt_size:sizes.(i))
          then incr bad_check );
      ( "crypto.cmac_rekey_ns", nop, Array.length key_bytes,
        fun i -> Crypto.Cmac.rekey ck key_bytes.(i) ~off:0 );
      ( "crypto.cmac_ns", nop, 4096,
        fun _ -> Crypto.Cmac.digest_into ck msg ~off:0 ~len:12 ~dst:tag ~dst_off:0 );
      ( "crypto.aes_block_ns", nop, 4096,
        fun _ -> Crypto.Aes.encrypt_block aes ~src:blk ~src_off:0 ~dst:blk ~dst_off:0 );
      ( "monitor.dupfilter_ns", (fun () -> filter := new_filter ()), nfirst,
        fun i ->
          ignore
            (Monitor.Duplicate_filter.check_and_insert !filter
               ~now:caps.(first_visits.(i)).now dup_keys.(i)) );
      ( "monitor.ofd_ns", (fun () -> ofd := new_ofd ()), nfirst,
        fun i ->
          let key, normalized = ofd_in.(i) in
          ignore
            (Monitor.Ofd.observe !ofd ~now:caps.(first_visits.(i)).now ~key ~normalized) );
      ( "crypto.aead_seal_ns", nop, Array.length aeads,
        fun i -> ignore (Hvf.seal_sigma ~aead:aeads.(i) ~res_key ~version:1 sigma) );
      ( "crypto.aead_open_ns", nop, Array.length aeads,
        fun i ->
          if Option.is_none (Hvf.open_sigma ~aead:aeads.(i) ~res_key ~version:1 sealed.(i))
          then incr bad_open );
      ( "drkey.derive_ns", nop, Array.length ks,
        fun i -> ignore (Drkey.Key_server.derive ks.(i) ~slow:G.s) );
    |]
  in
  let rounds = Array.map (fun _ -> Array.make stage_reps 0.) stages in
  if ncap > 0 then
    for r = 0 to stage_reps - 1 do
      Array.iteri
        (fun k (_, prepare, n, f) ->
          prepare ();
          let t0 = Stats.now_ns () in
          for i = 0 to n - 1 do
            f i
          done;
          rounds.(k).(r) <- float_of_int (Stats.now_ns () - t0) /. float_of_int n)
        stages
    done;
  if !bad_check + !bad_replay + !bad_open > 0 then
    fail "stage replays rejected recorded inputs (%d HVF checks, %d router visits, %d σ opens)"
      !bad_check !bad_replay !bad_open;
  let stage name =
    let rec go k =
      let nm, _, n, _ = stages.(k) in
      if String.equal nm name then (n, Stats.median_of rounds.(k)) else go (k + 1)
    in
    go 0
  in
  let put_stage ?(scale = 1.) metric unit_ name =
    let n, v = stage name in
    put metric unit_ n (if n > 0 then Some (v /. scale) else None);
    v
  in
  let replay_ns = put_stage "router.replay_ns" "ns" "router.replay_ns" in
  let parts =
    List.map
      (fun nm -> put_stage nm "ns" nm)
      [ "packet.view_parse_ns"; "hvf.eer_check_ns"; "monitor.dupfilter_ns"; "monitor.ofd_ns" ]
  in
  List.iter
    (fun nm -> ignore (put_stage nm "ns" nm))
    [ "crypto.cmac_rekey_ns"; "crypto.cmac_ns"; "crypto.aes_block_ns" ];
  ignore (put_stage ~scale:1e3 "crypto.aead_seal_us" "us" "crypto.aead_seal_ns");
  ignore (put_stage ~scale:1e3 "crypto.aead_open_us" "us" "crypto.aead_open_ns");
  ignore (put_stage ~scale:1e3 "drkey.derive_us" "us" "drkey.derive_ns");
  let stage_sum = if replay_ns > 0. then Some (List.fold_left ( +. ) 0. parts /. replay_ns) else None in
  put "router.stage_sum_ratio" "ratio" ncap stage_sum;
  in_tol stage_sum_tolerance "router.stage_sum_ratio" (ncap, stage_sum);
  (* Admission replayed alone. *)
  let seg, eer, mismatches = replay_admission () in
  if mismatches > 0 then fail "admission replay disagrees with the run on %d decisions" mismatches;
  put "backends.admit_seg_us" "us" (Stats.count seg) (median_us seg);
  put "backends.admit_eer_us" "us" (Stats.count eer) (median_us eer);
  (ntally, List.rev !errors)
