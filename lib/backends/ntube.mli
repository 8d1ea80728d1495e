(** The reference admission backend: N-Tube-style bounded tube
    fairness for segment reservations and constant-time bandwidth
    walks for end-to-end reservations (§4.7).

    {b Segment reservations} ({!Seg}): each AS distributes the Colibri
    share of an ingress–egress interface pair among competing SegRs
    proportionally to their {e adjusted} demand, obtained by (1)
    limiting the total demand from an ingress interface by that
    interface's capacity, (2) limiting the per-tube demand by the
    egress capacity, and (3) limiting any single source AS's demand at
    an egress by that capacity (bounded tube fairness [62]). Memoized
    running aggregates make one admission cost a constant number of
    hash-table operations {e independent of the number of existing
    reservations} — the property Fig. 3 measures.

    {b End-to-end reservations} ({!Eer}): admission against a SegR is
    a constant-time bandwidth-headroom check (Fig. 4). Versions of one
    EER count with their maximum, not their sum (§4.2); at transfer
    ASes a core-SegR's bandwidth is shared proportionally between
    competing up-SegRs.

    {!B} packs both under the {!Backend_intf.S} contract; as a chained
    discipline it pays a forward and a backward control message per
    on-path AS per admission. *)

open Colibri_types

type decision = Backend_intf.decision =
  | Granted of Bandwidth.t
  | Denied of { available : Bandwidth.t }

val pp_decision : decision Fmt.t

(** Float-sum accumulators in keyed hash tables, with an audit diff
    against a fresh recomputation. Shared with {!Flyover}, which
    instantiates it over its slice-keyed tables. The representation is
    exposed so backends can iterate/remove entries directly. *)
module Acc (T : Hashtbl.S) : sig
  type t = float T.t

  val create : int -> t
  val get : t -> T.key -> float
  val add : t -> T.key -> float -> unit
  val close : float -> float -> bool
  (** Relative float-tolerance comparison used by the audit diffs. *)

  val diff : what:string -> pp_key:T.key Fmt.t -> t -> t -> string list
  (** [diff ~what ~pp_key stored fresh] — one message per key whose
      stored aggregate disagrees with the recomputed value. *)
end

(** Per-AS admission state for segment reservations. *)
module Seg : sig
  type t

  val create : capacity:(Ids.iface -> Bandwidth.t) -> ?share:float -> unit -> t
  (** [capacity] maps an interface to its raw link capacity; [share]
      (default 0.80) is the fraction available to Colibri per the
      traffic split (§3.4). *)

  val admit :
    t ->
    key:Ids.res_key ->
    version:int ->
    src:Ids.asn ->
    ingress:Ids.iface ->
    egress:Ids.iface ->
    demand:Bandwidth.t ->
    min_bw:Bandwidth.t ->
    exp_time:Timebase.t ->
    now:Timebase.t ->
    decision
  (** Tentatively admit one SegR version. A grant below [min_bw]
      denies the request and leaves no state behind. The grant becomes
      definitive when the backward pass calls {!set_granted} with the
      path-wide minimum. Duplicate [(key, version)] pairs are
      denied. *)

  val set_granted :
    t ->
    key:Ids.res_key ->
    version:int ->
    granted:Bandwidth.t ->
    (unit, string) result
  (** Shrink a tentative grant to the final path-wide value; raising
      above the local grant is refused. *)

  val remove : t -> key:Ids.res_key -> version:int -> unit
  (** Release one version (failed-setup cleanup, or deactivation after
      a version switch). Idempotent: unknown keys and versions are
      no-ops. *)

  val granted_of : t -> key:Ids.res_key -> version:int -> Bandwidth.t option
  val count : t -> int
  val admissions : t -> int

  val allocated_on : t -> egress:Ids.iface -> Bandwidth.t
  (** Σ of current grants on an egress interface — never exceeds the
      interface's Colibri share. *)

  val audit : t -> string list
  (** Recompute every memoized aggregate (per-ingress demand, per-tube
      demand, per-(source, egress) demand, per-egress adjusted demand
      and allocation) from the entry table and diff it against the
      incremental state; also checks that no egress is oversubscribed.
      [[]] means the state is consistent — the sanitizer for the
      constant-cost admission bookkeeping Fig. 3 depends on. *)

  val corrupt_for_test : t -> unit
  (** Deliberately skew one memoized aggregate so tests can verify that
      {!audit} detects corruption. Never call outside tests. *)
end

(** Per-AS admission state for end-to-end reservations. *)
module Eer : sig
  type t

  val create : unit -> t

  val admit :
    ?partial:bool ->
    t ->
    key:Ids.res_key ->
    version:int ->
    segrs:(Ids.res_key * Bandwidth.t) list ->
    via_up:(Ids.res_key * Ids.res_key * Bandwidth.t) option ->
    demand:Bandwidth.t ->
    exp_time:Timebase.t ->
    now:Timebase.t ->
    decision
  (** Admit one EER version over the given SegRs (keys with their
      current bandwidth). [via_up = Some (core, up, core_bw)] marks
      admission at a transfer AS between an up- and a core-SegR, where
      the core bandwidth is shared proportionally between competing
      up-SegRs. [partial = true] implements the renewal flexibility of
      §4.2: instead of denying a demand that does not fully fit, the
      AS grants what fits. *)

  val remove_version :
    t -> key:Ids.res_key -> version:int -> now:Timebase.t -> unit
  (** Failed-setup cleanup: drop one tentative version. Idempotent:
      unknown keys and versions are no-ops. *)

  val granted_of : t -> key:Ids.res_key -> version:int -> Bandwidth.t option
  (** Grant already held by a (key, version) pair — the retransmission
      shortcut; re-admitting a live version would double-add it. *)

  val allocated_over : t -> Ids.res_key -> Bandwidth.t
  (** Σ EER bandwidth currently booked over a SegR. *)

  val flow_count : t -> int
  val admissions : t -> int

  val audit : t -> string list
  (** Recompute the per-SegR allocations and transfer-AS competition
      aggregates from the flow table (contribution = max over live
      versions, §4.2) and diff them against the incremental state.
      [[]] means consistent. *)

  val corrupt_for_test : t -> unit
  (** Deliberately skew one memoized aggregate so tests can verify that
      {!audit} detects corruption. Never call outside tests. *)
end

module B : Backend_intf.S
(** {!Seg} + {!Eer} packed behind the backend contract
    ([name = "ntube"]). *)

val factory : Backend_intf.factory
