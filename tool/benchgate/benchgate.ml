(** [colibri-benchgate]: the performance ratchet for [@ci].

    PR 7 fixed the parallel router's negative scaling (0.59x with two
    workers before the de-false-sharing of the SPSC rings and the
    batched job transfer). This gate keeps it fixed: it reads the
    checked-in [BENCH_colibri.json] and fails the build if the headline
    scaling factor ever drops below break-even again, or if the
    1/2/4-worker curve stops being recorded. The numbers themselves are
    refreshed by running the bench ([dune exec bench/main.exe]); the
    gate only polices the ledger a PR ships.

    The summary file is a flat one-key-per-line JSON object written by
    [bench/main.ml:write_summary]; the hand-rolled reader below parses
    exactly that shape so the tool needs no JSON dependency. Exit code
    0 when the gate holds, 1 on a regression or missing key, 2 on
    usage errors — same contract as colibri-lint. *)

(* Every key the scaling story depends on. The wall-clock keys are
   honest same-core measurements; the headline keys substitute the
   shared-nothing projection when the host cannot truly run the
   workers in parallel (DESIGN.md S11). The gate requires both
   families so neither silently disappears from the ledger. *)
let curve_keys =
  [
    "par_router_1w_mpps";
    "par_router_2w_mpps";
    "par_router_4w_mpps";
    "par_router_1w_wall_mpps";
    "par_router_2w_wall_mpps";
    "par_router_4w_wall_mpps";
    "par_router_submit_ns";
    "par_router_busy_ns";
    "par_ring_2d_mxfers";
    "par_ring_2d_batched_mxfers";
  ]

(* The ratchet itself: 2-worker headline throughput over 1-worker.
   Below 1.0 means adding a worker makes the router slower — the exact
   bug this gate exists to keep dead. *)
let scaling_key = "par_router_scaling_x"
let scaling_floor = 1.0

(* PR 8: the backend-comparison curve ([bench/main.exe backends],
   DESIGN.md §12). Every discipline must keep reporting all four
   columns, the reference backend must keep admitting the whole
   comparison workload, and the flyover backend must stay cheaper in
   control messages than the chained reference — the head-to-head
   claim the comparison exists to make. *)
let backend_names = [ "ntube"; "intserv"; "diffserv"; "flyover" ]

let backend_columns =
  [ "setup_latency"; "msgs_per_setup"; "utilization"; "admit_rate" ]

let backend_keys =
  List.concat_map
    (fun b -> List.map (fun c -> Printf.sprintf "backend_%s_%s" b c) backend_columns)
    backend_names

let reference_admit_key = "backend_ntube_admit_rate"
let reference_admit_floor = 0.995

(* PR 10: the adversarial suite ([bench/main.exe attack], test/attack).
   Enforcing backends must keep honest ASes a bounded share of a
   trunk under setup spam while admissionless DiffServ visibly fails
   the same bound, overusers must be flagged within one OFD window,
   and crash-synchronized renewal storms must not amplify control
   traffic beyond 1.5x a clean run. *)
let attack_honest_key = "attack_honest_share_min"
let attack_honest_floor = 0.35
let attack_diffserv_key = "attack_diffserv_honest_share"
let attack_diffserv_ceiling = 0.35
let attack_detection_key = "attack_detection_latency_windows"
let attack_detection_ceiling = 1.0
let attack_amplification_key = "attack_amplification_x"
let attack_amplification_ceiling = 1.5

(* The allocation ratchet ([bench/main.exe gc], DESIGN.md §8): minor
   words per packet on the wire path, as last refreshed. The counts are
   deterministic — no timing enters them — so the gate needs no noise
   margin: a ledger value above its ceiling is a new allocation on the
   per-packet path. A [*_minor_words_per_pkt] key the table does not
   list fails too, so a new wire-path row cannot ship ungated. Lower a
   ceiling when a change removes an allocation. *)
let alloc_suffix = "_minor_words_per_pkt"

let alloc_ceilings =
  [
    ("router_bare_minor_words_per_pkt", 4.);
    ("router_monitored_minor_words_per_pkt", 12.);
    ("gateway_minor_words_per_pkt", 39.);
    ("gateway_1500b_minor_words_per_pkt", 45.);
  ]

let check_alloc (summary : (string * float) list) : string list =
  let over =
    List.filter_map
      (fun (key, ceiling) ->
        match List.assoc_opt key summary with
        | None ->
            Some
              (Printf.sprintf "missing key [%s]: the allocation ratchet must stay in the ledger"
                 key)
        | Some x when x > ceiling ->
            Some
              (Printf.sprintf "%s = %.3f > %.0f: the wire path allocates more per packet" key x
                 ceiling)
        | Some _ -> None)
      alloc_ceilings
  in
  let ungated =
    List.filter_map
      (fun (key, _) ->
        if String.ends_with ~suffix:alloc_suffix key && not (List.mem_assoc key alloc_ceilings)
        then Some (Printf.sprintf "key [%s] has no allocation ceiling in benchgate" key)
        else None)
      summary
  in
  over @ ungated

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse the flat [write_summary] shape: each line is at most one
   ["key": 1.2345] pair (trailing comma optional). Anything that does
   not look like that — nested objects, arrays — is not a summary this
   tool understands, and unknown lines are skipped rather than
   rejected so the bench can grow keys freely. *)
let parse_summary (src : string) : (string * float) list =
  let pairs = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iter
    (fun line ->
      let line = String.trim line in
      match String.index_opt line '"' with
      | None -> ()
      | Some q0 -> (
          match String.index_from_opt line (q0 + 1) '"' with
          | None -> ()
          | Some q1 -> (
              let key = String.sub line (q0 + 1) (q1 - q0 - 1) in
              match String.index_from_opt line q1 ':' with
              | None -> ()
              | Some c ->
                  let v = String.sub line (c + 1) (String.length line - c - 1) in
                  let v = String.trim v in
                  let v =
                    if String.length v > 0 && v.[String.length v - 1] = ',' then
                      String.sub v 0 (String.length v - 1)
                    else v
                  in
                  (match float_of_string_opt v with
                  | Some f -> pairs := (key, f) :: !pairs
                  | None -> ()))))
    lines;
  List.rev !pairs

(* The typedtree analyzers gated by tool/baseline.json. The per-tool
   ratchet (fresh findings fail, stale entries fail) lives in each
   analyzer's own @alias; this check closes the remaining hole — a
   tool's ledger key being dropped wholesale, which would make its
   gate vacuous without failing anything. *)
let analyzer_tools = [ "colibri-deepscan"; "colibri-domaincheck"; "colibri-wiretaint" ]

let check_analyzer_ledger (path : string) : string list =
  if not (Sys.file_exists path) then
    [ Printf.sprintf "analyzer ledger %s not found: the finding ratchet is gone" path ]
  else
    match Lint.Baseline.load path with
    | exception Lint.Baseline.Parse_error msg ->
        [ Printf.sprintf "analyzer ledger %s unreadable: %s" path msg ]
    | ledger ->
        List.filter_map
          (fun tool ->
            if List.mem_assoc tool ledger then None
            else
              Some
                (Printf.sprintf
                   "analyzer ledger %s has no [%s] key: the tool dropped out of the \
                    finding ratchet"
                   path tool))
          analyzer_tools

let () =
  let path, baseline =
    match Sys.argv with
    | [| _; p; b |] -> (p, Some b)
    | [| _; p |] -> (p, None)
    | [| _ |] -> ("BENCH_colibri.json", None)
    | _ ->
        prerr_endline "usage: colibri_benchgate [BENCH_colibri.json [baseline.json]]";
        exit 2
  in
  if not (Sys.file_exists path) then (
    Printf.eprintf "benchgate: %s not found\n" path;
    exit 2);
  let summary = parse_summary (read_file path) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (match baseline with
  | Some b -> List.iter (fun m -> failures := m :: !failures) (check_analyzer_ledger b)
  | None -> ());
  List.iter
    (fun key ->
      if not (List.mem_assoc key summary) then
        fail "missing key [%s]: the 1/2/4-worker scaling curve must stay in the ledger" key)
    curve_keys;
  (match check_alloc summary with
  | [] ->
      Printf.printf "benchgate: %d allocation keys within their ceilings\n"
        (List.length alloc_ceilings)
  | fs -> List.iter (fun m -> failures := m :: !failures) fs);
  (match List.assoc_opt scaling_key summary with
  | None -> fail "missing key [%s]" scaling_key
  | Some x when x < scaling_floor ->
      fail "%s = %.4f < %.1f: adding a worker makes the router slower again" scaling_key x
        scaling_floor
  | Some x -> Printf.printf "benchgate: %s = %.4f (floor %.1f), curve complete\n" scaling_key x scaling_floor);
  List.iter
    (fun key ->
      if not (List.mem_assoc key summary) then
        fail "missing key [%s]: the backend comparison must stay in the ledger" key)
    backend_keys;
  (match List.assoc_opt reference_admit_key summary with
  | None -> fail "missing key [%s]" reference_admit_key
  | Some x when x < reference_admit_floor ->
      fail "%s = %.4f < %.3f: the reference backend denies workload it used to admit"
        reference_admit_key x reference_admit_floor
  | Some _ -> ());
  (match
     ( List.assoc_opt "backend_flyover_msgs_per_setup" summary,
       List.assoc_opt "backend_ntube_msgs_per_setup" summary )
   with
  | Some fly, Some ref_msgs when fly >= ref_msgs ->
      fail
        "backend_flyover_msgs_per_setup = %.2f >= %.2f (ntube): flyovers lost their \
         message advantage"
        fly ref_msgs
  | Some fly, Some ref_msgs ->
      Printf.printf
        "benchgate: flyover %.2f msgs/setup vs ntube %.2f (floor %s >= %.3f), backend \
         curve complete\n"
        fly ref_msgs reference_admit_key reference_admit_floor
  | _ -> () (* missing keys already reported above *));
  (match List.assoc_opt attack_honest_key summary with
  | None -> fail "missing key [%s]: the attack suite must stay in the ledger" attack_honest_key
  | Some x when x < attack_honest_floor ->
      fail "%s = %.4f < %.2f: honest ASes lost their bounded share under setup spam"
        attack_honest_key x attack_honest_floor
  | Some _ -> ());
  (match List.assoc_opt attack_diffserv_key summary with
  | None -> fail "missing key [%s]: the attack suite must stay in the ledger" attack_diffserv_key
  | Some x when x >= attack_diffserv_ceiling ->
      fail
        "%s = %.4f >= %.2f: the admissionless baseline no longer shows the failure \
         the comparison exists to show"
        attack_diffserv_key x attack_diffserv_ceiling
  | Some _ -> ());
  (match List.assoc_opt attack_detection_key summary with
  | None -> fail "missing key [%s]: the attack suite must stay in the ledger" attack_detection_key
  | Some x when x > attack_detection_ceiling ->
      fail "%s = %.4f > %.1f: overusers escape the OFD for more than one window"
        attack_detection_key x attack_detection_ceiling
  | Some _ -> ());
  (match List.assoc_opt attack_amplification_key summary with
  | None -> fail "missing key [%s]: the attack suite must stay in the ledger" attack_amplification_key
  | Some x when x > attack_amplification_ceiling ->
      fail "%s = %.4f > %.1f: renewal storms amplify control traffic beyond the retry budget"
        attack_amplification_key x attack_amplification_ceiling
  | Some x ->
      Printf.printf
        "benchgate: attack curve complete (honest share >= %.2f, detection %.2f \
         windows, amplification %.2fx)\n"
        attack_honest_floor
        (Option.value ~default:0. (List.assoc_opt attack_detection_key summary))
        x);
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun m -> Printf.eprintf "benchgate: %s\n" m) (List.rev fs);
      exit 1
