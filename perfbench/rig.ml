(* The deployment under test and the untraced runner: builds the
   two-ISD deployment a workload needs, executes a generated op stream
   through the public Deployment API, and checks every outcome. *)

open Colibri_types
open Colibri_topology
open Colibri
module G = Topology_gen.Two_isd

let mbps = Bandwidth.of_mbps
let gbps = Bandwidth.of_gbps
let src_host = Ids.host 1
let dst_host = Ids.host 2

type pkt_outcome =
  | Delivered
  | Dropped of Router.drop_reason
  | Refused of Gateway.drop_reason

(* How one op is carried out. The benchmark measures [networked]; the
   traced run swaps in the instant and span-recording walks. *)
type walks = {
  send : Deployment.t -> res_id:Ids.res_id -> payload:int -> pkt_outcome;
  eer :
    Deployment.t ->
    route:Deployment.eer_route ->
    bw:Bandwidth.t ->
    (Reservation.eer, string) result;
  segr :
    Deployment.t ->
    key:Ids.res_key ->
    path:Path.t ->
    max_bw:Bandwidth.t ->
    (Reservation.segr, string) result;
}

let segr_min = mbps 1.

(* Extra up-SegRs the timed SegR renewals cycle over. *)
let segr_pool = 32

let send_data d ~res_id ~payload =
  match Deployment.send_data d ~src:G.s ~res_id ~payload_len:payload with
  | Error e -> Refused e
  | Ok { delivered = true; _ } -> Delivered
  | Ok { dropped_at = Some (_, r); _ } -> Dropped r
  | Ok { dropped_at = None; _ } -> Refused Gateway.Unknown_reservation

(* A SegR renewal is usable once its pending version is active. *)
let activated d (r : (Reservation.segr, string) result) =
  match r with
  | Error e -> Error e
  | Ok (s : Reservation.segr) -> (
      match Deployment.activate_segr d ~key:s.key with
      | Ok () -> Ok s
      | Error e -> Error e)

let networked =
  {
    send = send_data;
    eer =
      (fun d ~route ~bw -> Deployment.setup_eer_sync d ~route ~src_host ~dst_host ~bw);
    segr =
      (fun d ~key ~path ~max_bw ->
        activated d
          (Deployment.setup_segr_sync ~renew:key d ~path ~kind:Reservation.Up ~max_bw
             ~min_bw:segr_min));
  }

let instant =
  {
    send = send_data;
    eer = (fun d ~route ~bw -> Deployment.setup_eer d ~route ~src_host ~dst_host ~bw);
    segr =
      (fun d ~key ~path ~max_bw ->
        activated d
          (Deployment.setup_segr ~renew:key d ~path ~kind:Reservation.Up ~max_bw
             ~min_bw:segr_min));
  }

(* ---------------- The deployment ---------------- *)

type slot = Fixed of Ids.res_id | Managed of Deployment.managed

type world = {
  cfg : Gen.config;
  d : Deployment.t;
  route : Deployment.eer_route;
  up_path : Path.t;
  pool : Ids.res_key array;
  ring : slot array; (* the working set packets are spread over *)
  mutable next : int; (* FIFO replacement cursor into [ring] *)
}

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let retry_policy (c : Gen.config) =
  Retry.policy ~base_timeout:c.retry_base ~max_timeout:(8. *. c.retry_base)
    ~max_attempts:20 ()

(* Deployment.create, SegR preload (up, core, down, SegR pool) and the
   EER working set. With [renew], working-set EERs are staggered over
   half a lifetime and handed to the renewal machine, so renewals
   arrive at a steady rate. *)
let build ?backend (c : Gen.config) (inp : Gen.inputs) ~(seed : int) : world =
  let d = Deployment.create ?backend ~seed (Topology_gen.two_isd ()) in
  let faults = Net.Fault.create ~seed:inp.fault_seed () in
  (* Every traversal gets an extra delay, uniform in [0, a fifth of the
     link delay], so simulated latencies vary with the seed. *)
  let jitter = c.link_delay /. 5. in
  Net.Fault.set_default faults (Net.Fault.plan ~jitter ());
  Deployment.attach_network ~delay:c.link_delay ~faults ~retry_policy:(retry_policy c)
    ~retry_seed:inp.retry_seed d;
  let db = Deployment.seg_db d in
  let up = List.hd (Segments.Db.up_segments db ~src:G.s) in
  let down = List.hd (Segments.Db.down_segments db ~dst:G.d) in
  let core =
    List.hd
      (Segments.Db.core_segments db ~src:(Path.destination up.path)
         ~dst:(Path.source down.path))
  in
  ignore
    (ok "up-SegR"
       (Deployment.setup_segr d ~path:up.path ~kind:Reservation.Up ~max_bw:(gbps 20.)
          ~min_bw:segr_min));
  ignore
    (ok "core-SegR"
       (Deployment.setup_segr d ~path:core.path ~kind:Reservation.Core
          ~max_bw:(gbps 40.) ~min_bw:segr_min));
  ignore
    (ok "down-SegR"
       (Deployment.request_down_segr d ~path:down.path ~max_bw:(gbps c.down_gbps)
          ~min_bw:segr_min));
  let route = List.hd (Deployment.lookup_eer_routes d ~src:G.s ~dst:G.d) in
  (* Loss on the first three links of the EER path (S-X1, X1-Y, Y-W1),
     both ways: six lossy traversals per EER walk, four per SegR
     renewal. With all ten traversals lossy, one walk in a hundred
     needs exactly five attempts, which puts the EER p99 on the
     boundary between two retry counts, where it flips from run to
     run. *)
  let rec links = function a :: (b :: _ as rest) -> (a, b) :: links rest | _ -> [] in
  let lossy = Net.Fault.plan ~loss:c.loss ~jitter () in
  List.iteri
    (fun i (a, b) ->
      if i < 3 then begin
        Net.Fault.set_link faults ~src:a ~dst:b lossy;
        Net.Fault.set_link faults ~src:b ~dst:a lossy
      end)
    (links (Path.ases route.path));
  let pool =
    Array.init segr_pool (fun _ ->
        (ok "pool SegR"
           (Deployment.setup_segr d ~path:up.path ~kind:Reservation.Up
              ~max_bw:(mbps 100.) ~min_bw:segr_min))
          .key)
  in
  let stagger = Reservation.eer_lifetime /. 2. /. float_of_int c.working_set in
  let ring =
    Array.init c.working_set (fun _ ->
        let bw = mbps c.eer_mbps in
        let eer = ok "working-set EER" (Deployment.setup_eer d ~route ~src_host ~dst_host ~bw) in
        if c.renew then begin
          let m =
            ok "auto-renew"
              (Deployment.auto_renew_eer d ~key:eer.key ~route ~src_host ~dst_host ~bw)
          in
          Deployment.advance d stagger;
          Managed m
        end
        else Fixed eer.key.res_id)
  in
  { cfg = c; d; route; up_path = up.path; pool; ring; next = 0 }

let res_id_of = function
  | Fixed r -> r
  | Managed m -> (Deployment.managed_key m).res_id

(* A granted setup that joins the working set displaces its oldest
   entry. *)
let admit_to_ring (w : world) (eer : Reservation.eer) ~(bw : Bandwidth.t) =
  let slot =
    if w.cfg.renew then
      Managed
        (ok "auto-renew"
           (Deployment.auto_renew_eer w.d ~key:eer.key ~route:w.route ~src_host ~dst_host
              ~bw))
    else Fixed eer.key.res_id
  in
  (match w.ring.(w.next) with
  | Managed m -> Deployment.stop_renewal m
  | Fixed _ -> ());
  w.ring.(w.next) <- slot;
  w.next <- (w.next + 1) mod Array.length w.ring

(* ---------------- Executing a stream ---------------- *)

type tally = {
  pkt_us : Stats.samples;
  eer_us : Stats.samples; (* every EER setup *)
  eer_granted_us : Stats.samples;
  segr_us : Stats.samples;
  setup_us : Stats.samples; (* every setup, in op order *)
  sim_ms : Stats.samples; (* simulated request → conclusion, EER setups *)
  mutable sent : int;
  mutable delivered : int;
  mutable duplicates : int;
  mutable policed : int;
  mutable bad_drops : int; (* drops no honest packet may suffer *)
  mutable attempted_setups : int;
  mutable granted : int;
  mutable setup_failures : int; (* errors other than an admission denial *)
  mutable over_grants : int;
  mutable first_error : string option;
  mutable setup_minor_words : float;
}

let tally () =
  {
    pkt_us = Stats.samples ();
    eer_us = Stats.samples ();
    eer_granted_us = Stats.samples ();
    segr_us = Stats.samples ();
    setup_us = Stats.samples ();
    sim_ms = Stats.samples ();
    sent = 0;
    delivered = 0;
    duplicates = 0;
    policed = 0;
    bad_drops = 0;
    attempted_setups = 0;
    granted = 0;
    setup_failures = 0;
    over_grants = 0;
    first_error = None;
    setup_minor_words = 0.;
  }

let note_error (t : tally) msg =
  if Option.is_none t.first_error then t.first_error <- Some msg

(* An admission refusal anywhere on the path — the outcome the
   bottleneck is sized to produce — as opposed to a broken walk. *)
let is_denial (e : string) =
  let sub = "insufficient bandwidth" in
  let n = String.length sub in
  let rec go i = i + n <= String.length e && (String.sub e i n = sub || go (i + 1)) in
  go 0

let outcome_setup (t : tally) ~what (r : (_, string) result) ~(granted_bw : _ -> Bandwidth.t)
    ~(demand : Bandwidth.t) =
  t.attempted_setups <- t.attempted_setups + 1;
  match r with
  | Ok v ->
      t.granted <- t.granted + 1;
      if Bandwidth.to_bps (granted_bw v) > Bandwidth.to_bps demand then begin
        t.over_grants <- t.over_grants + 1;
        note_error t (what ^ ": grant above demand")
      end
  | Error e when is_denial e -> ()
  | Error e ->
      t.setup_failures <- t.setup_failures + 1;
      note_error t (what ^ ": " ^ e)

let record_pkt (t : tally) (o : pkt_outcome) =
  t.sent <- t.sent + 1;
  match o with
  | Delivered -> t.delivered <- t.delivered + 1
  | Dropped Router.Duplicate -> t.duplicates <- t.duplicates + 1
  | Dropped r ->
      if r = Router.Policed then t.policed <- t.policed + 1;
      t.bad_drops <- t.bad_drops + 1;
      note_error t (Fmt.str "honest packet dropped: %a" Router.pp_drop_reason r)
  | Refused r ->
      t.bad_drops <- t.bad_drops + 1;
      note_error t (Fmt.str "gateway refused an honest packet: %a" Gateway.pp_drop_reason r)

let eer_bw (d : Deployment.t) (e : Reservation.eer) =
  Reservation.eer_bw e ~now:(Deployment.now d)

let segr_bw (s : Reservation.segr) =
  match s.active with Some v -> v.bw | None -> Bandwidth.zero

(* Run one op; with [timed], its time and outcome land in [t]. *)
let run_op ?(timed = true) (walks : walks) (w : world) (t : tally) (op : Gen.op) =
  let d = w.d in
  if timed then Stats.tick ();
  let setup_timed f =
    let sim0 = Deployment.now d in
    let words0 = Gc.minor_words () in
    let t0 = Stats.now_ns () in
    let r = f () in
    let us = float_of_int (Stats.now_ns () - t0) /. 1e3 in
    if timed then begin
      t.setup_minor_words <- t.setup_minor_words +. (Gc.minor_words () -. words0);
      Stats.add t.setup_us us
    end;
    (r, us, (Deployment.now d -. sim0) *. 1e3)
  in
  match op with
  | Gen.Pkt { pick; payload } ->
      let res_id = res_id_of w.ring.(pick mod Array.length w.ring) in
      let t0 = Stats.now_ns () in
      let o = walks.send d ~res_id ~payload in
      let us = float_of_int (Stats.now_ns () - t0) /. 1e3 in
      if timed then begin
        Stats.add t.pkt_us us;
        record_pkt t o
      end;
      Deployment.advance d w.cfg.pkt_gap
  | Gen.Eer { demand_mbps; join } ->
      let bw = mbps demand_mbps in
      let r, us, sim_ms = setup_timed (fun () -> walks.eer d ~route:w.route ~bw) in
      if timed then begin
        Stats.add t.eer_us us;
        if Result.is_ok r then Stats.add t.eer_granted_us us;
        Stats.add t.sim_ms sim_ms;
        outcome_setup t ~what:"EER setup" r ~granted_bw:(eer_bw d) ~demand:bw
      end;
      (match r with Ok eer when join -> admit_to_ring w eer ~bw | _ -> ());
      if w.cfg.op_gap > 0. then Deployment.advance d w.cfg.op_gap
  | Gen.Segr { pick; max_mbps } ->
      let key = w.pool.(pick mod Array.length w.pool) in
      let max_bw = mbps max_mbps in
      let r, us, _ = setup_timed (fun () -> walks.segr d ~key ~path:w.up_path ~max_bw) in
      if timed then begin
        Stats.add t.segr_us us;
        outcome_setup t ~what:"SegR renewal" r ~granted_bw:segr_bw ~demand:max_bw
      end;
      if w.cfg.op_gap > 0. then Deployment.advance d w.cfg.op_gap

let run_ops ?timed walks w t (ops : Gen.op array) = Array.iter (run_op ?timed walks w t) ops

(* Set-up as the timed phase will find it: build, warm up. *)
let set_up ?backend (cfg : Gen.config) (inp : Gen.inputs) ~seed : world =
  let w = build ?backend cfg inp ~seed in
  run_ops ~timed:false networked w (tally ()) inp.warm;
  w

(* ---------------- End-of-run checks ---------------- *)

(* Timed ops whose outcome fails an output check. *)
let failed (t : tally) = t.bad_drops + t.setup_failures + t.over_grants

(* Stop every renewal machine and drain the engine, so that every
   control message has been delivered or lost. *)
let drain (w : world) =
  Array.iter (function Managed m -> Deployment.stop_renewal m | Fixed _ -> ()) w.ring;
  let engine = Deployment.engine w.d in
  let rec go n = if n > 0 && Net.Engine.step engine then go (n - 1) in
  go 10_000_000

let counter reg name = Obs.Counter.value (Obs.Registry.counter reg name)

(* Sum of every counter whose name starts with one of [prefixes]. *)
let sum_counters (snap : Obs.snapshot) (prefixes : string list) =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Obs.Counter n
        when List.exists (fun p -> String.starts_with ~prefix:p name) prefixes ->
          acc + n
      | _ -> acc)
    0 snap

let gauge (snap : Obs.snapshot) name =
  match List.assoc_opt name snap with Some (Obs.Gauge g) -> g | _ -> 0.

let cserv_denied (d : Deployment.t) =
  List.fold_left
    (fun acc asn ->
      acc
      + sum_counters
          (Obs.Registry.snapshot (Cserv.metrics (Deployment.cserv d asn)))
          [ "cserv_seg_denied_total"; "cserv_eer_denied_total" ])
    0
    (Topology.ases (Deployment.topology d))

(* The output checks; [] when the run is correct. *)
let checks (w : world) (t : tally) : string list =
  let cn = Deployment.control_net w.d in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if t.bad_drops > 0 then
    fail "%d honest packets dropped or refused (first: %s)" t.bad_drops
      (Option.value t.first_error ~default:"?");
  if t.over_grants > 0 then fail "%d grants above their demand" t.over_grants;
  if t.setup_failures > 0 then
    fail "%d setups failed (first: %s)" t.setup_failures
      (Option.value t.first_error ~default:"?");
  (match Deployment.audit_all w.d with
  | [] -> ()
  | e :: _ as es -> fail "audit_all: %d findings (first: %s)" (List.length es) e);
  let sent = Control_net.sent_count cn
  and delivered = Control_net.delivered_count cn
  and lost = Control_net.lost_count cn in
  if sent <> delivered + lost then
    fail "control_net: sent %d <> delivered %d + lost %d" sent delivered lost;
  List.rev !errs
