(** Conformance suite for the pluggable admission backends
    (DESIGN.md §12): every factory in {!Backends.All.all} must satisfy
    the interface laws of {!Backends.Backend_intf} — grant agreement,
    idempotent re-admit, idempotent teardown, audit cleanliness after
    arbitrary op sequences, and corruption detection — plus
    flyover-specific slice economics and the backend-labeled Obs
    contract. *)

open Colibri_types
module Backend = Backends.Backend_intf

let gbps = Bandwidth.of_gbps
let mbps = Bandwidth.of_mbps
let asn n = Ids.asn ~isd:1 ~num:n
let key src id : Ids.res_key = { src_as = asn src; res_id = id }
let capacity _ = gbps 10.
let instance (f : Backend.factory) = f.make ~capacity ()

let seg_req ?(version = 1) ?(ingress = 1) ?(egress = 2) ?(exp_time = 300.) ~src
    ~id ~demand () : Backend.seg_request =
  {
    key = key src id;
    version;
    src = asn src;
    ingress;
    egress;
    demand;
    min_bw = Bandwidth.of_kbps 1.;
    exp_time;
  }

let eer_req ?(version = 1) ?(ingress = 1) ?(egress = 2) ?(exp_time = 16.) ~src
    ~id ~demand () : Backend.eer_request =
  {
    key = key src id;
    version;
    segrs = [ (key (100 + ingress) 1, gbps 1.) ];
    via_up = None;
    ingress;
    egress;
    demand;
    renewal = false;
    exp_time;
  }

let bw = Alcotest.testable Bandwidth.pp Bandwidth.equal

let granted_exn what = function
  | Backend.Granted g -> g
  | Backend.Denied _ -> Alcotest.failf "%s: denied" what

(* Law 1: after Granted bw, granted_of returns Some bw until removal. *)
let grant_agreement (f : Backend.factory) () =
  let t = instance f in
  let g = granted_exn f.label (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 200.) ()) ~now:0.) in
  Alcotest.(check (option bw)) "seg granted_of agrees" (Some g)
    (Backend.seg_granted_of t ~key:(key 1 1) ~version:1);
  let g' = granted_exn f.label (Backend.admit_eer t ~req:(eer_req ~src:2 ~id:2 ~demand:(mbps 5.) ()) ~now:0.) in
  Alcotest.(check (option bw)) "eer granted_of agrees" (Some g')
    (Backend.eer_granted_of t ~key:(key 2 2) ~version:1);
  Alcotest.(check (option bw)) "unknown version is None" None
    (Backend.seg_granted_of t ~key:(key 1 1) ~version:9)

(* Law 2: re-admitting a live (key, version) returns the recorded
   grant and changes no allocation — the retransmission shortcut. *)
let idempotent_readmit (f : Backend.factory) () =
  let t = instance f in
  let req = seg_req ~src:1 ~id:1 ~demand:(mbps 200.) () in
  let g1 = granted_exn f.label (Backend.admit_seg t ~req ~now:0.) in
  let alloc1 = Backend.seg_allocated_on t ~egress:2 in
  let g2 = granted_exn f.label (Backend.admit_seg t ~req ~now:0.) in
  Alcotest.(check bw) "retransmit returns the recorded grant" g1 g2;
  Alcotest.(check bw) "retransmit books nothing" alloc1
    (Backend.seg_allocated_on t ~egress:2);
  Alcotest.(check int) "both calls counted" 2 (Backend.admissions t);
  Alcotest.(check int) "one reservation" 1 (Backend.seg_count t)

(* Law 3: removal is idempotent, never raises on unknown keys, and
   returns the state so the same demand admits identically again. *)
let idempotent_teardown (f : Backend.factory) () =
  let t = instance f in
  Backend.remove_seg t ~key:(key 9 9) ~version:1 ~now:0.;
  Backend.remove_eer t ~key:(key 9 9) ~version:1 ~now:0.;
  let req = seg_req ~src:1 ~id:1 ~demand:(mbps 200.) () in
  let g1 = granted_exn f.label (Backend.admit_seg t ~req ~now:0.) in
  let base = Backend.seg_allocated_on t ~egress:2 in
  Backend.remove_seg t ~key:(key 1 1) ~version:1 ~now:0.;
  Backend.remove_seg t ~key:(key 1 1) ~version:1 ~now:0.;
  Alcotest.(check (option bw)) "removed" None
    (Backend.seg_granted_of t ~key:(key 1 1) ~version:1);
  Alcotest.(check bw) "capacity released" Bandwidth.zero
    Bandwidth.(min base (Backend.seg_allocated_on t ~egress:2));
  let g2 = granted_exn f.label (Backend.admit_seg t ~req ~now:0.) in
  Alcotest.(check bw) "same demand admits identically after removal" g1 g2;
  Alcotest.(check string) "audit clean" "" (String.concat "; " (Backend.audit t))

(* Backward-pass commit (chained disciplines only): shrink sticks,
   raising is refused. *)
let commit_shrinks (f : Backend.factory) () =
  let t = instance f in
  if Backend.commit_required t then begin
    let g = granted_exn f.label (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 200.) ()) ~now:0.) in
    let half = Bandwidth.scale g 0.5 in
    (match Backend.commit_seg t ~key:(key 1 1) ~version:1 ~granted:half with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: shrink refused: %s" f.label e);
    Alcotest.(check (option bw)) "commit shrinks the grant" (Some half)
      (Backend.seg_granted_of t ~key:(key 1 1) ~version:1);
    (match Backend.commit_seg t ~key:(key 1 1) ~version:1 ~granted:(Bandwidth.scale g 2.) with
    | Ok () -> Alcotest.failf "%s: raising a grant must be refused" f.label
    | Error _ -> ());
    Alcotest.(check string) "audit clean" "" (String.concat "; " (Backend.audit t))
  end

let corrupt_detected (f : Backend.factory) () =
  let t = instance f in
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 100.) ()) ~now:0.);
  Alcotest.(check string) "clean before" "" (String.concat "; " (Backend.audit t));
  Backend.corrupt_for_test t;
  Alcotest.(check bool) "audit detects corruption" false (Backend.audit t = [])

(* Law 4, property-checked: after ANY random op sequence the audit is
   clean and granted_of agrees with the last decision per key. *)
type op =
  | Admit_seg of int * int * int (* src, id, demand Mbps *)
  | Remove_seg of int * int
  | Admit_eer of int * int * int
  | Remove_eer of int * int
  | Advance

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun s i d -> Admit_seg (s, i, d)) (1 -- 5) (1 -- 8) (1 -- 400);
        map2 (fun s i -> Remove_seg (s, i)) (1 -- 5) (1 -- 8);
        map3 (fun s i d -> Admit_eer (s, i, d)) (6 -- 9) (1 -- 8) (1 -- 50);
        map2 (fun s i -> Remove_eer (s, i)) (6 -- 9) (1 -- 8);
        return Advance;
      ])

let prop_audit_clean (f : Backend.factory) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s: audit clean after random op sequences" f.label)
    ~count:60
    QCheck2.Gen.(list_size (1 -- 60) op_gen)
    (fun ops ->
      let t = instance f in
      let now = ref 0. in
      List.iter
        (fun op ->
          match op with
          | Admit_seg (s, i, d) ->
              ignore
                (Backend.admit_seg t
                   ~req:(seg_req ~src:s ~id:i ~demand:(mbps (float_of_int d))
                           ~exp_time:(!now +. 40.) ())
                   ~now:!now)
          | Remove_seg (s, i) -> Backend.remove_seg t ~key:(key s i) ~version:1 ~now:!now
          | Admit_eer (s, i, d) ->
              ignore
                (Backend.admit_eer t
                   ~req:(eer_req ~src:s ~id:i ~demand:(mbps (float_of_int d))
                           ~exp_time:(!now +. 16.) ())
                   ~now:!now)
          | Remove_eer (s, i) -> Backend.remove_eer t ~key:(key s i) ~version:1 ~now:!now
          | Advance -> now := !now +. 3.)
        ops;
      match Backend.audit t with
      | [] -> true
      | errs -> QCheck2.Test.fail_reportf "audit: %s" (String.concat "; " errs))

(* ---------- Flyover slice economics ---------- *)

let flyover () = instance Backends.All.flyover

(* Slice-index clamp (DESIGN.md §13): a wire-supplied expiry must not
   turn into an unbounded [int_of_float] — NaN would be 0 but a huge
   float is undefined behavior territory for array-sized indices. *)
let flyover_clamp_slice () =
  let m = Backends.Flyover.max_slice in
  Alcotest.(check int) "identity in band" 42 (Backends.Flyover.clamp_slice 42.3);
  Alcotest.(check int) "zero" 0 (Backends.Flyover.clamp_slice 0.);
  Alcotest.(check int) "negative floors" 0 (Backends.Flyover.clamp_slice (-7.));
  Alcotest.(check int) "nan is zero" 0 (Backends.Flyover.clamp_slice Float.nan);
  Alcotest.(check int) "inf caps" m (Backends.Flyover.clamp_slice Float.infinity);
  Alcotest.(check int) "max_int-adjacent caps" m
    (Backends.Flyover.clamp_slice (float_of_int max_int));
  Alcotest.(check int) "just past the cap" m
    (Backends.Flyover.clamp_slice (float_of_int m +. 2.))

let flyover_purchase_amortizes () =
  let t = flyover () in
  Alcotest.(check int) "no traffic yet" 0 (Backend.control_messages t);
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 150.) ~exp_time:40. ()) ~now:0.);
  Alcotest.(check int) "first admission purchases (2 msgs)" 2 (Backend.control_messages t);
  Backend.remove_seg t ~key:(key 1 1) ~version:1 ~now:0.;
  (* The purchase (ceil(150/100) = 200 Mbps of quanta) outlives the
     reservation: the same source re-books inside its holdings for
     free. *)
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:2 ~demand:(mbps 100.) ~exp_time:40. ()) ~now:0.);
  Alcotest.(check int) "re-booking held quanta is free" 2 (Backend.control_messages t);
  (* A different source holds nothing and must purchase. *)
  ignore (Backend.admit_seg t ~req:(seg_req ~src:2 ~id:3 ~demand:(mbps 100.) ~exp_time:40. ()) ~now:0.);
  Alcotest.(check int) "a new source purchases" 4 (Backend.control_messages t);
  Alcotest.(check string) "audit clean" "" (String.concat "; " (Backend.audit t))

let flyover_slices_retire () =
  let t = flyover () in
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 100.) ~exp_time:4. ()) ~now:0.);
  (* Jump past both the reservation expiry and its slices' end. *)
  ignore (Backend.admit_seg t ~req:(seg_req ~src:2 ~id:2 ~demand:(mbps 100.) ~exp_time:40. ()) ~now:20.);
  Alcotest.(check (option bw)) "expired reservation gone" None
    (Backend.seg_granted_of t ~key:(key 1 1) ~version:1);
  Alcotest.(check int) "only the live reservation remains" 1 (Backend.seg_count t);
  Alcotest.(check string) "audit clean after retirement" ""
    (String.concat "; " (Backend.audit t))

let flyover_horizon_clamps () =
  let t = flyover () in
  (* An effectively-infinite expiry must not materialize unbounded
     slice state: the span is clamped to the purchase horizon. *)
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 100.) ~exp_time:1e9 ()) ~now:0.);
  Alcotest.(check string) "audit clean under horizon clamp" ""
    (String.concat "; " (Backend.audit t))

let flyover_denies_oversale () =
  let t = flyover () in
  (* 10 Gbps × 0.80 share = 8 Gbps sellable per (egress, slice). *)
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(gbps 8.) ~exp_time:40. ()) ~now:0.);
  (match Backend.admit_seg t ~req:(seg_req ~src:2 ~id:2 ~demand:(gbps 1.) ~exp_time:40. ()) ~now:0. with
  | Backend.Denied _ -> ()
  | Backend.Granted g ->
      Alcotest.failf "sold %a beyond the ledger bound" Bandwidth.pp g);
  Alcotest.(check string) "audit clean" "" (String.concat "; " (Backend.audit t))

(* ---------- Reference-backend removal asymmetry regression ----------
   Seg.remove and Eer.remove_version must both be total no-ops on
   unknown keys AND unknown versions of known keys. *)

let reference_remove_is_total () =
  let seg = Backends.Ntube.Seg.create ~capacity () in
  Backends.Ntube.Seg.remove seg ~key:(key 7 7) ~version:1;
  (match
     Backends.Ntube.Seg.admit seg ~key:(key 1 1) ~version:1 ~src:(asn 1) ~ingress:1
       ~egress:2 ~demand:(mbps 100.) ~min_bw:(Bandwidth.of_kbps 1.)
       ~exp_time:300. ~now:0.
   with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "trivial SegR denied");
  Backends.Ntube.Seg.remove seg ~key:(key 1 1) ~version:2 (* unknown version *);
  Alcotest.(check bool) "known version survives a bogus-version remove" true
    (Backends.Ntube.Seg.granted_of seg ~key:(key 1 1) ~version:1 <> None);
  let eer = Backends.Ntube.Eer.create () in
  Backends.Ntube.Eer.remove_version eer ~key:(key 7 7) ~version:1 ~now:0.;
  (match
     Backends.Ntube.Eer.admit eer ~key:(key 1 1) ~version:1
       ~segrs:[ (key 101 1, gbps 1.) ] ~via_up:None ~demand:(mbps 5.)
       ~exp_time:16. ~now:0.
   with
  | Backends.Ntube.Granted _ -> ()
  | Backends.Ntube.Denied _ -> Alcotest.fail "trivial EER denied");
  Backends.Ntube.Eer.remove_version eer ~key:(key 1 1) ~version:2 ~now:0.;
  Alcotest.(check bool) "known version survives a bogus-version remove" true
    (Backends.Ntube.Eer.granted_of eer ~key:(key 1 1) ~version:1 <> None);
  Alcotest.(check string) "both audits clean" ""
    (String.concat "; " (Backends.Ntube.Seg.audit seg @ Backends.Ntube.Eer.audit eer))

(* ---------- Backend-labeled Obs families stay allocation-free ------ *)

let labeled_counter_zero_alloc () =
  let reg = Obs.Registry.create () in
  let fam =
    Obs.Asn_counters.create ~extra:[ ("backend", "ntube") ] reg
      ~name:"cserv_denied_total" ~label:"src_as"
  in
  let c = Obs.Asn_counters.get fam (asn 1) in
  Obs.Counter.incr c;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Counter.incr c
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.))
    "10k incrs of a backend-labeled member allocate 0 minor words" 0.
    (Float.max 0. (after -. before -. 2.))

let backend_label_in_snapshot () =
  let t = instance Backends.All.ntube in
  ignore (Backend.admit_seg t ~req:(seg_req ~src:1 ~id:1 ~demand:(mbps 100.) ()) ~now:0.);
  let snap = Backend.obs_snapshot t in
  Alcotest.(check bool) "snapshot carries the backend label" true
    (List.exists
       (fun (name, _) ->
         name = Obs.labeled "backend_seg_reservations" [ ("backend", "ntube") ])
       snap)

let per_factory name f = Alcotest.test_case (Printf.sprintf "%s: %s" f.Backend.label name) `Quick

let suite =
  List.concat_map
    (fun (f : Backend.factory) ->
      [
        per_factory "grant agreement" f (grant_agreement f);
        per_factory "idempotent re-admit" f (idempotent_readmit f);
        per_factory "idempotent teardown" f (idempotent_teardown f);
        per_factory "commit shrinks, never raises" f (commit_shrinks f);
        per_factory "corrupt_for_test is detected" f (corrupt_detected f);
        QCheck_alcotest.to_alcotest (prop_audit_clean f);
      ])
    Backends.All.all
  @ [
      Alcotest.test_case "flyover: purchases amortize over bookings" `Quick
        flyover_purchase_amortizes;
      Alcotest.test_case "flyover: slices retire cleanly" `Quick flyover_slices_retire;
      Alcotest.test_case "flyover: horizon clamps unbounded expiry" `Quick
        flyover_horizon_clamps;
      Alcotest.test_case "flyover: slice-index clamp saturates" `Quick
        flyover_clamp_slice;
      Alcotest.test_case "flyover: ledger bound denies oversale" `Quick
        flyover_denies_oversale;
      Alcotest.test_case "reference: remove is total on both classes" `Quick
        reference_remove_is_total;
      Alcotest.test_case "obs: backend-labeled counter incr is 0-alloc" `Quick
        labeled_counter_zero_alloc;
      Alcotest.test_case "obs: snapshot carries the backend label" `Quick
        backend_label_in_snapshot;
    ]
