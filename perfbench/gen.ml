(* Workload definitions and the seeded input generator. Everything a
   run does is drawn here from [--seed]: the op order, packet payload
   sizes, EER picks and demands, SegR renewal picks, and the fault
   seed. The runner only executes what this module produces, so every
   count, ratio and simulated-time figure is a pure function of
   (workload, seed, seconds). *)

type op =
  | Pkt of { pick : int; payload : int }
      (** one [send_data] on working-set EER [pick mod size] *)
  | Eer of { demand_mbps : float; join : bool }
      (** one networked EER setup S → D; if granted and [join], it
          replaces the oldest working-set EER *)
  | Segr of { pick : int; max_mbps : float }
      (** one networked renewal of pool SegR [pick mod pool] *)

type config = {
  name : string;
  link_delay : float;  (** one-way control-link delay, s *)
  loss : float;  (** loss per traversal of the lossy links (Rig.build) *)
  retry_base : float;  (** first retransmission timeout, s *)
  working_set : int;  (** EERs carrying the packets *)
  renew : bool;  (** working set kept alive by the renewal machine *)
  eer_mbps : float;  (** working-set EER bandwidth *)
  demand_mbps : float;  (** centre of the timed EER demands *)
  down_gbps : float;  (** down-SegR bandwidth: the EER bottleneck *)
  payloads : int array;
  pkt_gap : float;  (** simulated seconds between packets *)
  op_gap : float;  (** simulated seconds after each setup *)
  pkts : int;  (** timed packets per second of --seconds *)
  eers : int;  (** timed EER setups per second of --seconds *)
  warmup : int;  (** untimed ops (same mix) before timing *)
}

(* Every timed stream carries enough samples for a p99 with ten samples
   beyond it, whatever --seconds is; in setup-churn, after a fifth of
   the EER requests are denied, so do the granted ones. *)
let floor_samples = 1600

(* Timed SegR renewals per second of --seconds, in every workload. *)
let segr_renewals = 150

let fwd_min =
  {
    name = "fwd-min";
    link_delay = 0.0001;
    loss = 0.;
    retry_base = 0.25;
    working_set = 256;
    renew = false;
    eer_mbps = 10.;
    demand_mbps = 4.;
    down_gbps = 20.;
    payloads = [| 0 |];
    pkt_gap = 10e-6;
    op_gap = 0.;
    pkts = 4000;
    eers = 150;
    warmup = 3000;
  }

let setup_churn =
  {
    name = "setup-churn";
    link_delay = 0.001;
    loss = 0.;
    retry_base = 0.25;
    working_set = 64;
    renew = false;
    eer_mbps = 10.;
    demand_mbps = 10.;
    down_gbps = 3.;
    payloads = [| 0 |];
    pkt_gap = 10e-6;
    op_gap = 0.02;
    pkts = 1200;
    eers = 300;
    warmup = 2750;
  }

let mixed_lossy =
  {
    name = "mixed-lossy";
    link_delay = 0.0001;
    loss = 0.05;
    retry_base = 0.002;
    working_set = 768;
    renew = true;
    eer_mbps = 5.;
    demand_mbps = 5.;
    down_gbps = 20.;
    payloads = [| 0; 576; 1400 |];
    pkt_gap = 40e-6;
    op_gap = 0.;
    pkts = 2000;
    eers = 150;
    warmup = 1500;
  }

let all = [ fwd_min; setup_churn; mixed_lossy ]
let find name = List.find_opt (fun c -> String.equal c.name name) all

type inputs = {
  warm : op array;  (** untimed warm-up stream *)
  timed : op array;
  fault_seed : int;
  retry_seed : int;
}

let counts (c : config) ~(seconds : int) =
  let scale k = max floor_samples (k * seconds) in
  (scale c.pkts, scale c.eers, scale segr_renewals)

(* A renewed working set takes one granted setup in eight, so most of
   its EERs live long enough to be renewed; otherwise every grant joins
   and the working set stays fresh. *)
let join_share (c : config) = if c.renew then 0.125 else 1.

(* [n_pkt] packets, [n_eer] EER setups and [n_segr] SegR renewals in a
   seeded order. *)
let stream (c : config) (rng : Random.State.t) ~n_pkt ~n_eer ~n_segr : op array =
  let draw_op = function
    | 0 ->
        Pkt
          {
            pick = Random.State.bits rng;
            payload = c.payloads.(Random.State.int rng (Array.length c.payloads));
          }
    | 1 ->
        let demand_mbps = c.demand_mbps *. (0.5 +. Random.State.float rng 1.0) in
        Eer { demand_mbps; join = Random.State.float rng 1.0 < join_share c }
    | _ ->
        Segr
          { pick = Random.State.bits rng; max_mbps = 50. +. Random.State.float rng 100. }
  in
  let kinds =
    Array.concat [ Array.make n_pkt 0; Array.make n_eer 1; Array.make n_segr 2 ]
  in
  for i = Array.length kinds - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- x
  done;
  Array.map draw_op kinds

let generate (c : config) ~(seed : int) ~(seconds : int) : inputs =
  let rng = Random.State.make [| 0xC011B; seed |] in
  let n_pkt, n_eer, n_segr = counts c ~seconds in
  let total = n_pkt + n_eer + n_segr in
  let share k = max 1 (k * c.warmup / total) in
  let warm =
    stream c rng ~n_pkt:(share n_pkt) ~n_eer:(share n_eer) ~n_segr:(share n_segr)
  in
  let timed = stream c rng ~n_pkt ~n_eer ~n_segr in
  { warm; timed; fault_seed = Random.State.bits rng; retry_seed = Random.State.bits rng }
