(** [colibri-wiretaint]: attacker-controlled-input taint analysis for
    the wire path (DESIGN.md §13).

    Every byte the dataplane and admission plane consume arrives from
    an untrusted AS. This pass reads the [.cmt] typedtrees (same
    loading and name-canonicalization layer as [colibri-deepscan]) and
    tracks wire-derived values — the results of the {!Packet.View}
    accessors, the [Packet] record codecs, [Ids.asn_of_bytes],
    [Path.hop_of_bytes]/[of_bytes] and raw [Bytes.get_*] reads — to
    four sink families:

    - [w1] — byte/array/string indexing and blit offsets;
    - [w2] — allocation sizes ([Bytes.create], [Array.make], table
      capacities);
    - [w3] — loop bounds and [count:]/[off:]-style trip parameters;
    - [w4] — bandwidth-ledger arithmetic ([Acc.add] amounts in
      [Backends.Ntube]/[Flyover], [int_of_float] slice-index math)
      where an attacker-chosen magnitude can overflow, wrap, or poison
      a float accumulator with inf/NaN.

    Taint is {e interprocedural}: it flows through function arguments
    (positional and labeled), through record fields (a field assigned
    a tainted value anywhere marks that (type, label) pair globally),
    and through function results, to a fixpoint over all loaded
    modules — a getter in [lib/core/packet.ml] can taint a slice
    computation three calls away in [lib/backends/flyover.ml].

    {b Sanitizers} release taint: a comparison guard whose condition
    mentions the value (by ident or by access path such as
    [req.res_info.bw]) dominates both branches of its conditional —
    the d5 pragmatic reading; a use sequenced {e after} the
    conditional, or guarded only through an intermediate boolean, is
    still flagged. Bounding calls ([min], [Float.min], [land], [mod],
    [Char.code], [Bandwidth.clamp]/[saturating_add]/[checked_add], the
    flyover slice clamp) also sanitize. [Float.max]/[max] do {e not}:
    they bound only from below, which is the wrong side for an index
    or an allocation size.

    Suppression: [[@colibri.allow "w1"]] on the expression or
    [[@@colibri.allow]] on the binding — findings are carried and
    flagged like domaincheck, never dropped, so suppression reviews
    can audit what the escape hatch hides. *)

open Typedtree
module SS = Deepscan.SS
module Finding = Lint.Finding

let rule_names = [ "w1"; "w2"; "w3"; "w4" ]

(* --------------------------- rule tables --------------------------- *)

(* Sources: calls whose result is wire-derived. The [View] accessors
   whose value [parse] itself bounds against the frame ([kind],
   [hops], [payload_len]'s sign... no: payload_len magnitude is
   unchecked above zero and stays a source) are handled as follows:
   [kind] and [hops] are excluded (magic/kind/hop-count/length checks
   dominate them), everything whose magnitude the parser does not
   bound stays in. *)
let source_calls =
  SS.of_list
    [
      "Packet.res_info_of_bytes"; "Packet.eer_info_of_bytes";
      "Ids.asn_of_bytes"; "Path.hop_of_bytes"; "Path.of_bytes";
      "Wire.get16"; "Wire.get32"; "Wire.get64";
      "Bytes.get"; "Bytes.unsafe_get"; "Bytes.get_uint8"; "Bytes.get_int8";
      "Bytes.get_uint16_be"; "Bytes.get_uint16_le"; "Bytes.get_int16_be";
      "Bytes.get_int16_le"; "Bytes.get_int32_be"; "Bytes.get_int32_le";
      "Bytes.get_int64_be"; "Bytes.get_int64_le";
      "View.payload_len"; "View.ts"; "View.src_isd"; "View.src_num";
      "View.res_id"; "View.version"; "View.bw_bps_int"; "View.exp_time_us";
      "View.bw"; "View.exp_time"; "View.eer_src_addr"; "View.eer_dst_addr";
      "View.hop_isd"; "View.hop_num"; "View.hop_ingress"; "View.hop_egress";
      "View.hop"; "View.hvf"; "View.res_info"; "View.eer_info";
    ]

(* Sanitizers: calls whose result is bounded regardless of input.
   [Char.code] is byte-ranged; [land]/[mod] mask; [min]-family bounds
   from above. [max]/[Float.max] deliberately absent. *)
let sanitizer_calls =
  SS.of_list
    [
      "min"; "Int.min"; "Float.min"; "Bandwidth.min"; "land"; "mod";
      "Char.code"; "Bandwidth.clamp"; "Bandwidth.checked_add";
      "Bandwidth.saturating_add"; "Bandwidth.saturating_add_bps";
      "clamp_slice"; "Flyover.clamp_slice"; "B.clamp_slice"; "Hashtbl.hash";
      "Ts.us_of_time"; "us_of_time";
    ]

(* Propagators: taint passes from any argument to the result. *)
let propagate_calls =
  SS.of_list
    [
      "+"; "-"; "*"; "/"; "+."; "-."; "*."; "/."; "~-"; "~-."; "succ"; "pred";
      "lsl"; "lsr"; "asr"; "lor"; "lxor"; "lnot";
      "float_of_int"; "int_of_float"; "Float.of_int"; "Float.to_int";
      "Float.round"; "Float.ceil"; "Float.floor"; "Float.abs"; "abs"; "max";
      "Float.max"; "Bandwidth.max";
      "Int32.to_int"; "Int32.of_int"; "Int64.to_int"; "Int64.of_int";
      "Int32.to_float"; "Int64.to_float"; "Int32.of_float"; "Int64.of_float";
      "Char.chr"; "ref"; "!"; "Option.value"; "Option.get"; "Option.some";
      "Bandwidth.of_bps"; "Bandwidth.to_bps"; "Bandwidth.of_kbps";
      "Bandwidth.of_mbps"; "Bandwidth.of_gbps"; "Bandwidth.to_gbps";
      "Bandwidth.to_mbps"; "Bandwidth.add"; "Bandwidth.sub"; "Bandwidth.scale";
      "Bandwidth.div"; "Timebase.Ts.of_int"; "Timebase.Ts.to_int";
      "Ts.of_int"; "Ts.to_int"; "Ids.asn"; "Ids.host";
    ]

(* Sinks: rule, then the 0-based positions (among [Nolabel] arguments)
   that must not receive a tainted value. *)
let sink_entries : (string * (string * int list)) list =
  [
    (* w1: indices and blit/sub offsets. *)
    ("Bytes.get", ("w1", [ 1 ])); ("Bytes.set", ("w1", [ 1 ]));
    ("Bytes.unsafe_get", ("w1", [ 1 ])); ("Bytes.unsafe_set", ("w1", [ 1 ]));
    ("Bytes.get_uint8", ("w1", [ 1 ])); ("Bytes.get_int8", ("w1", [ 1 ]));
    ("Bytes.get_uint16_be", ("w1", [ 1 ])); ("Bytes.get_uint16_le", ("w1", [ 1 ]));
    ("Bytes.get_int16_be", ("w1", [ 1 ])); ("Bytes.get_int16_le", ("w1", [ 1 ]));
    ("Bytes.get_int32_be", ("w1", [ 1 ])); ("Bytes.get_int32_le", ("w1", [ 1 ]));
    ("Bytes.get_int64_be", ("w1", [ 1 ])); ("Bytes.get_int64_le", ("w1", [ 1 ]));
    ("Bytes.set_uint8", ("w1", [ 1 ])); ("Bytes.set_int8", ("w1", [ 1 ]));
    ("Bytes.set_uint16_be", ("w1", [ 1 ])); ("Bytes.set_int16_be", ("w1", [ 1 ]));
    ("Bytes.set_int32_be", ("w1", [ 1 ])); ("Bytes.set_int64_be", ("w1", [ 1 ]));
    ("Bytes.sub", ("w1", [ 1; 2 ])); ("Bytes.sub_string", ("w1", [ 1; 2 ]));
    ("Bytes.fill", ("w1", [ 1; 2 ])); ("Bytes.blit", ("w1", [ 1; 3; 4 ]));
    ("Bytes.blit_string", ("w1", [ 1; 3; 4 ]));
    ("String.get", ("w1", [ 1 ])); ("String.sub", ("w1", [ 1; 2 ]));
    ("Array.get", ("w1", [ 1 ])); ("Array.set", ("w1", [ 1 ]));
    ("Array.unsafe_get", ("w1", [ 1 ])); ("Array.unsafe_set", ("w1", [ 1 ]));
    ("Array.sub", ("w1", [ 1; 2 ])); ("Array.fill", ("w1", [ 1; 2 ]));
    ("Array.blit", ("w1", [ 1; 3; 4 ]));
    ("Wire.get16", ("w1", [ 1 ])); ("Wire.get32", ("w1", [ 1 ]));
    ("Wire.get64", ("w1", [ 1 ])); ("Wire.put16", ("w1", [ 1 ]));
    ("Wire.put32", ("w1", [ 1 ])); ("Wire.put64", ("w1", [ 1 ]));
    (* w2: allocation sizes and table capacities. *)
    ("Bytes.create", ("w2", [ 0 ])); ("Bytes.make", ("w2", [ 0 ]));
    ("Bytes.extend", ("w2", [ 1; 2 ]));
    ("Array.make", ("w2", [ 0 ])); ("Array.init", ("w2", [ 0 ]));
    ("String.make", ("w2", [ 0 ])); ("Buffer.create", ("w2", [ 0 ]));
    ("Hashtbl.create", ("w2", [ 0 ])); ("List.init", ("w2", [ 0 ]));
    (* w4: ledger accumulation amounts and float->int slice math. *)
    ("int_of_float", ("w4", [ 0 ])); ("Float.to_int", ("w4", [ 0 ]));
    ("Acc.add", ("w4", [ 2 ])); ("Iface_acc.add", ("w4", [ 2 ]));
    ("Tube_acc.add", ("w4", [ 2 ])); ("Src_acc.add", ("w4", [ 2 ]));
    ("Res_acc.add", ("w4", [ 2 ])); ("Pair_acc.add", ("w4", [ 2 ]));
    ("Cell_acc.add", ("w4", [ 2 ])); ("Hold_acc.add", ("w4", [ 2 ]));
  ]

(* Labeled arguments that are trip counts or byte offsets wherever
   they appear (the wire-path naming convention). *)
let labeled_sinks = [ ("count", "w3"); ("off", "w1"); ("pos", "w1"); ("len", "w1") ]

let sink_tbl : (string, string * int list) Hashtbl.t =
  let t = Hashtbl.create 97 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) sink_entries;
  t

let find_sink (name : string) : (string * int list) option =
  match Hashtbl.find_opt sink_tbl name with
  | Some _ as s -> s
  | None -> (
      match List.rev (String.split_on_char '.' name) with
      | f :: m :: _ :: _ -> Hashtbl.find_opt sink_tbl (m ^ "." ^ f)
      | _ -> None)

let rule_word = function
  | "w1" -> "byte/array index or blit offset"
  | "w2" -> "allocation size"
  | "w3" -> "loop bound / trip count"
  | "w4" -> "bandwidth-ledger arithmetic"
  | _ -> "sink"

(* ------------------------------ facts ------------------------------ *)

(* Reasons are human-readable provenance chains; facts are first-wins
   (never updated), which both bounds chain growth and guarantees the
   fixpoint terminates: every table only grows. *)
type facts = {
  f_param : (string * string, string) Hashtbl.t; (* (node, param key) -> why *)
  f_field : (string, string) Hashtbl.t; (* "Head.type.label" -> why *)
  f_result : (string, string) Hashtbl.t; (* node -> why *)
  mutable f_grew : bool;
}

let fact_add (tbl : ('a, string) Hashtbl.t) (facts : facts) k why =
  if not (Hashtbl.mem tbl k) then begin
    Hashtbl.replace tbl k why;
    facts.f_grew <- true
  end

let cap_reason (r : string) : string =
  if String.length r > 140 then String.sub r 0 137 ^ "..." else r

(* ------------------------------ nodes ------------------------------ *)

type node = {
  n_name : string; (* canonical, e.g. "Flyover.B.slice_of" *)
  n_file : string;
  n_line : int;
  n_vb : value_binding;
  n_allowed : SS.t;
}

type modul = {
  m_name : string;
  m_nodes : node list;
  m_idents : (string, string) Hashtbl.t; (* Ident.unique_name -> node name *)
}

let collect_nodes ~(m_name : string) (str : structure) :
    node list * (string, string) Hashtbl.t =
  let idents = Hashtbl.create 32 in
  let nodes = ref [] in
  let rec items prefix (its : structure_item list) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, name) | Tpat_alias (_, id, name) ->
                    let n_name = prefix ^ "." ^ name.txt in
                    let loc = vb.vb_loc.loc_start in
                    Hashtbl.replace idents (Ident.unique_name id) n_name;
                    nodes :=
                      {
                        n_name;
                        n_file = loc.pos_fname;
                        n_line = loc.pos_lnum;
                        n_vb = vb;
                        n_allowed = Deepscan.attrs_allowed vb.vb_attributes;
                      }
                      :: !nodes
                | _ -> ())
              vbs
        | Tstr_module mb -> module_binding prefix mb
        | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
        | _ -> ())
      its
  and module_binding prefix (mb : module_binding) =
    let sub = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
    let rec expr (me : module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> items (prefix ^ "." ^ sub) s.str_items
      | Tmod_constraint (me, _, _, _) -> expr me
      | Tmod_functor (_, me) -> expr me
      | _ -> ()
    in
    expr mb.mb_expr
  in
  items m_name str.str_items;
  (List.rev !nodes, idents)

(* Same suffix-indexed resolver as deepscan: full name plus dotted
   suffixes of length >= 2; ambiguous suffixes resolve to nothing. *)
let build_resolver (mods : modul list) : (string, node option) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun m ->
      List.iter
        (fun node ->
          let comps = String.split_on_char '.' node.n_name in
          let rec suffixes = function
            | [] | [ _ ] -> []
            | _ :: rest as l -> String.concat "." l :: suffixes rest
          in
          List.iter
            (fun key ->
              match Hashtbl.find_opt tbl key with
              | None -> Hashtbl.replace tbl key (Some node)
              | Some (Some other) when other != node -> Hashtbl.replace tbl key None
              | Some _ -> ())
            (suffixes comps))
        m.m_nodes)
    mods;
  tbl

(* --------------------------- tree helpers -------------------------- *)

let rec pat_idents : type k. k general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ Ident.unique_name id ]
  | Tpat_alias (p, id, _) -> Ident.unique_name id :: pat_idents p
  | Tpat_tuple ps -> List.concat_map pat_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_idents ps
  | Tpat_variant (_, Some p, _) -> pat_idents p
  | Tpat_record (fields, _) -> List.concat_map (fun (_, _, p) -> pat_idents p) fields
  | Tpat_array ps -> List.concat_map pat_idents ps
  | Tpat_or (a, b, _) -> pat_idents a @ pat_idents b
  | Tpat_lazy p -> pat_idents p
  | Tpat_value v -> pat_idents (v :> value general_pattern)
  | _ -> []

(* The curried parameter spine of a binding: (label, pattern) per
   parameter, and the innermost body. *)
let rec spine_params (e : expression) :
    (Asttypes.arg_label * value general_pattern) list * expression =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } ->
      let ps, body = spine_params c.c_rhs in
      ((arg_label, c.c_lhs) :: ps, body)
  | _ -> ([], e)

let param_key (label : Asttypes.arg_label) (nolabel_pos : int) : string =
  match label with
  | Asttypes.Nolabel -> string_of_int nolabel_pos
  | Asttypes.Labelled s | Asttypes.Optional s -> "~" ^ s

(* ---------------------------- analysis ----------------------------- *)

type ctx = {
  wrappers : SS.t;
  resolver : (string, node option) Hashtbl.t;
  facts : facts;
}

let canon (ctx : ctx) p = Deepscan.canon ~wrappers:ctx.wrappers p

(* A record field fact is keyed by [typename.label] using only the
   {e last} component of the record type's constructor — deliberately
   coarse. The same declaration is seen under different paths from
   different modules (cserv's [Backend.seg_request] vs ntube's
   [Backend_intf.seg_request] — a module alias; [Packet.res_info] via
   the .mli from outside vs the .ml inside), and taint must survive
   all of those views as well as the first-class-module backend
   dispatch, which no call-graph edge crosses. Distinct types sharing
   both a name and a label merge — over-tainting, the safe direction
   (DESIGN.md §13). The fully-qualified head as written at the use
   site is kept as the human-readable display name. *)
let field_key (ctx : ctx) ~(self_mod : string)
    (lbl : Types.label_description) : (string * string) option =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) ->
      let comps =
        Deepscan.canon_components ~wrappers:ctx.wrappers
          (Deepscan.path_components p)
      in
      let head =
        match comps with
        | [ single ] -> self_mod ^ "." ^ single
        | l -> String.concat "." l
      in
      let last = match List.rev comps with c :: _ -> c | [] -> "?" in
      Some (last ^ "." ^ lbl.Types.lbl_name, head ^ "." ^ lbl.Types.lbl_name)
  | _ -> None

(* Analyze one node: propagate facts; when [emit] is given, also fire
   the sink rules. Returns nothing — facts accumulate in [ctx]. *)
let analyze (ctx : ctx) (m : modul) (node : node)
    ~(emit : (rule:string -> line:int -> msg:string -> allowed:SS.t -> unit) option)
    : unit =
  let self_mod = m.m_name in
  let env : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let sanitized : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let allowed = ref node.n_allowed in
  (* Resolve a value path: local idents map through the module table to
     their full node name; everything else keeps its canonical name. *)
  let resolved_name (p : Path.t) : string =
    let name = canon ctx p in
    match p with
    | Path.Pident id ->
        Option.value ~default:name
          (Hashtbl.find_opt m.m_idents (Ident.unique_name id))
    | _ -> name
  in
  let resolve_node (name : string) : node option =
    match Hashtbl.find_opt ctx.resolver name with
    | Some (Some n) -> Some n
    | _ -> None
  in
  let rec access_path (e : expression) : string option =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Some (Ident.unique_name id)
    | Texp_field (b, _, lbl) ->
        Option.map (fun p -> p ^ "." ^ lbl.Types.lbl_name) (access_path b)
    | _ -> None
  in
  let sanitized_expr (e : expression) : bool =
    match access_path e with Some p -> Hashtbl.mem sanitized p | None -> false
  in
  (* Value taint of an expression, as a provenance string. Pure: env,
     sanitized and the fact tables are read, never written. *)
  let rec taint_of (e : expression) : string option =
    if sanitized_expr e then None
    else
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> (
          match Hashtbl.find_opt env (Ident.unique_name id) with
          | Some _ as r -> r
          | None -> result_taint (resolved_name (Path.Pident id)))
      | Texp_ident (p, _, _) -> result_taint (canon ctx p)
      | Texp_constant _ -> None
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
          apply_taint (resolved_name p) args
      | Texp_apply (f, args) -> (
          match taint_of f with
          | Some _ as r -> r
          | None -> first_arg_taint args)
      | Texp_field (base, _, lbl) -> (
          match field_taint lbl with Some _ as r -> r | None -> taint_of base)
      | Texp_let (_, _, body) -> taint_of body
      | Texp_sequence (_, b) -> taint_of b
      | Texp_open (_, b) -> taint_of b
      | Texp_try (b, _) -> taint_of b
      | Texp_ifthenelse (_, a, b) -> (
          match taint_of a with
          | Some _ as r -> r
          | None -> Option.bind b taint_of)
      | Texp_match (_, cases, _) ->
          List.fold_left
            (fun acc c -> match acc with Some _ -> acc | None -> taint_of c.c_rhs)
            None cases
      | Texp_construct (_, _, args) -> first_taint args
      | Texp_variant (_, Some a) -> taint_of a
      | Texp_tuple es -> first_taint es
      | Texp_array es -> first_taint es
      | Texp_record { extended_expression = Some b; _ } -> taint_of b
      | _ -> None
  and first_taint es =
    List.fold_left
      (fun acc e -> match acc with Some _ -> acc | None -> taint_of e)
      None es
  and first_arg_taint args =
    List.fold_left
      (fun acc (_, a) ->
        match (acc, a) with
        | (Some _ as r), _ -> r
        | None, Some e -> taint_of e
        | None, None -> None)
      None args
  and result_taint (name : string) : string option =
    match Hashtbl.find_opt ctx.facts.f_result name with
    | Some _ as r -> r
    | None -> (
        match resolve_node name with
        | Some n -> Hashtbl.find_opt ctx.facts.f_result n.n_name
        | None -> None)
  and field_taint (lbl : Types.label_description) : string option =
    match field_key ctx ~self_mod lbl with
    | Some (k, _) -> Hashtbl.find_opt ctx.facts.f_field k
    | None -> None
  and apply_taint (name : string) args : string option =
    if Deepscan.mem_qualified source_calls name then
      Some (Printf.sprintf "wire read [%s]" name)
    else if Deepscan.mem_qualified sanitizer_calls name then None
    else if Deepscan.mem_qualified propagate_calls name then first_arg_taint args
    else result_taint name
  in
  (* Bind a let/match pattern against the taint of its RHS; record
     patterns additionally consult the per-field facts, so
     [let { bw; _ } = p.res_info] taints [bw] even when the record
     value itself is clean. *)
  let fact_tainted_local why u =
    if not (Hashtbl.mem env u) then Hashtbl.replace env u (cap_reason why)
  in
  let bind_ident = fact_tainted_local in
  let rec bind_pattern : type k.
      k general_pattern -> ?rhs:expression -> string option -> unit =
   fun p ?rhs rhs_taint ->
    match (p.pat_desc, rhs) with
    (* Component-wise tuple destructuring: [match (a, b) with x, y ->]
       must not taint [y] just because [a] is tainted. *)
    | Tpat_tuple ps, Some { exp_desc = Texp_tuple es; _ }
      when List.length ps = List.length es ->
        List.iter2 (fun sp se -> bind_pattern sp ~rhs:se (taint_of se)) ps es
    | Tpat_value v, _ ->
        bind_pattern (v :> value general_pattern) ?rhs rhs_taint
    | _ -> bind_pattern_flat p rhs_taint
  and bind_pattern_flat : type k. k general_pattern -> string option -> unit =
   fun p rhs_taint ->
    match p.pat_desc with
    | Tpat_record (fields, _) ->
        List.iter
          (fun (_, lbl, sp) ->
            match
              ( field_key ctx ~self_mod lbl,
                rhs_taint )
            with
            | Some (k, _), _ when Hashtbl.mem ctx.facts.f_field k ->
                List.iter
                  (bind_ident (Hashtbl.find ctx.facts.f_field k))
                  (pat_idents sp)
            | _, Some why -> List.iter (bind_ident why) (pat_idents sp)
            | _, None -> ())
          fields
    | Tpat_alias (sp, id, _) ->
        (match rhs_taint with
        | Some why -> bind_ident why (Ident.unique_name id)
        | None -> ());
        bind_pattern sp rhs_taint
    | Tpat_value v -> bind_pattern (v :> value general_pattern) rhs_taint
    | Tpat_or (a, b, _) ->
        bind_pattern a rhs_taint;
        bind_pattern b rhs_taint
    | _ -> (
        match rhs_taint with
        | Some why -> List.iter (bind_ident why) (pat_idents p)
        | None -> ())
  in
  (* Access paths mentioned by a guard condition: idents plus
     ident.field... chains. Mentioning a path sanitizes it inside the
     conditional's branches. *)
  let collect_paths (e : expression) : string list =
    let acc = ref [] in
    let super = Tast_iterator.default_iterator in
    let expr sub (e : expression) =
      (match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> acc := Ident.unique_name id :: !acc
      | Texp_field _ -> (
          match access_path e with Some p -> acc := p :: !acc | None -> ())
      | _ -> ());
      super.expr sub e
    in
    let it = { super with expr } in
    it.expr it e;
    !acc
  in
  let with_sanitized (paths : string list) (k : unit -> unit) : unit =
    let added =
      List.filter
        (fun p ->
          if Hashtbl.mem sanitized p then false
          else begin
            Hashtbl.replace sanitized p ();
            true
          end)
        paths
    in
    k ();
    List.iter (Hashtbl.remove sanitized) added
  in
  let sink_check ~(line : int) ~(what : string) (rule : string)
      (arg : expression) : unit =
    match emit with
    | None -> ()
    | Some emit -> (
        match taint_of arg with
        | None -> ()
        | Some why ->
            emit ~rule ~line
              ~msg:
                (Printf.sprintf
                   "wire-tainted %s at [%s]: %s; add a dominating bounds \
                    check or clamp"
                   (rule_word rule) what (cap_reason why))
              ~allowed:!allowed)
  in
  (* The walker: one pass over the body, collecting facts and (when
     [emit] is set) firing the sink checks. *)
  let super = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    let saved_allowed = !allowed in
    allowed := SS.union saved_allowed (Deepscan.attrs_allowed e.exp_attributes);
    (match e.exp_desc with
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : value_binding) ->
            sub.Tast_iterator.expr sub vb.vb_expr;
            bind_pattern vb.vb_pat ~rhs:vb.vb_expr (taint_of vb.vb_expr))
          vbs;
        sub.Tast_iterator.expr sub body
    | Texp_ifthenelse (cond, a, b) ->
        sub.Tast_iterator.expr sub cond;
        with_sanitized (collect_paths cond) (fun () ->
            sub.Tast_iterator.expr sub a;
            Option.iter (sub.Tast_iterator.expr sub) b)
    | Texp_match (scrut, cases, _) ->
        sub.Tast_iterator.expr sub scrut;
        let st = taint_of scrut in
        with_sanitized (collect_paths scrut) (fun () ->
            List.iter
              (fun c ->
                bind_pattern c.c_lhs ~rhs:scrut st;
                Option.iter (sub.Tast_iterator.expr sub) c.c_guard;
                sub.Tast_iterator.expr sub c.c_rhs)
              cases)
    | Texp_while (cond, body) ->
        sub.Tast_iterator.expr sub cond;
        with_sanitized (collect_paths cond) (fun () ->
            sub.Tast_iterator.expr sub body)
    | Texp_for (_, _, lo, hi, _, body) ->
        let line = e.exp_loc.loc_start.pos_lnum in
        sink_check ~line ~what:"for-loop bound" "w3" lo;
        sink_check ~line ~what:"for-loop bound" "w3" hi;
        sub.Tast_iterator.expr sub lo;
        sub.Tast_iterator.expr sub hi;
        sub.Tast_iterator.expr sub body
    | Texp_setfield (base, _, lbl, rhs) ->
        sub.Tast_iterator.expr sub base;
        sub.Tast_iterator.expr sub rhs;
        (match (taint_of rhs, field_key ctx ~self_mod lbl) with
        | Some why, Some (k, display) ->
            fact_add ctx.facts.f_field ctx.facts k
              (cap_reason (why ^ " -> stored in " ^ display))
        | _ -> ())
    | Texp_record { fields; extended_expression; _ } ->
        Option.iter (sub.Tast_iterator.expr sub) extended_expression;
        Array.iter
          (fun (lbl, def) ->
            match def with
            | Overridden (_, fe) -> (
                sub.Tast_iterator.expr sub fe;
                match (taint_of fe, field_key ctx ~self_mod lbl) with
                | Some why, Some (k, display) ->
                    fact_add ctx.facts.f_field ctx.facts k
                      (cap_reason (why ^ " -> stored in " ^ display))
                | _ -> ())
            | Kept _ -> ())
          fields
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args) ->
        let name = resolved_name p in
        let line = e.exp_loc.loc_start.pos_lnum in
        (* Sink checks: positional table entries and labeled args. *)
        (match find_sink name with
        | Some (rule, positions) ->
            let pos = ref 0 in
            List.iter
              (fun (label, a) ->
                match (label, a) with
                | Asttypes.Nolabel, Some arg ->
                    let here = !pos in
                    incr pos;
                    if List.mem here positions then
                      sink_check ~line ~what:name rule arg
                | _ -> ())
              args
        | None -> ());
        List.iter
          (fun (label, a) ->
            match (label, a) with
            | (Asttypes.Labelled l | Asttypes.Optional l), Some arg -> (
                match List.assoc_opt l labeled_sinks with
                | Some rule -> sink_check ~line ~what:(name ^ " ~" ^ l) rule arg
                | None -> ())
            | _ -> ())
          args;
        (* [r := tainted] taints the ref ident. *)
        (match (name, args) with
        | ( ":=",
            [ (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ });
              (_, Some rhs);
            ] ) -> (
            match taint_of rhs with
            | Some why -> fact_tainted_local why (Ident.unique_name id)
            | None -> ())
        | _ -> ());
        (* Interprocedural: a tainted argument creates a parameter fact
           on the resolved callee. *)
        (match resolve_node name with
        | Some callee when callee.n_name <> node.n_name ->
            let pos = ref 0 in
            List.iter
              (fun (label, a) ->
                let key =
                  match label with
                  | Asttypes.Nolabel ->
                      let k = param_key label !pos in
                      incr pos;
                      k
                  | _ -> param_key label 0
                in
                match a with
                | Some arg -> (
                    match taint_of arg with
                    | Some why ->
                        fact_add ctx.facts.f_param ctx.facts
                          (callee.n_name, key)
                          (cap_reason
                             (Printf.sprintf "%s -> %s:%d -> %s arg %s" why
                                node.n_name line callee.n_name key))
                    | None -> ())
                | None -> ())
              args
        | _ -> ());
        sub.Tast_iterator.expr sub f;
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
    | _ -> super.expr sub e);
    allowed := saved_allowed
  in
  let it = { super with expr } in
  (* Seed the node's parameters from the accumulated facts, then walk. *)
  let params, body = spine_params node.n_vb.vb_expr in
  let pos = ref 0 in
  List.iter
    (fun (label, pat) ->
      let key =
        match label with
        | Asttypes.Nolabel ->
            let k = param_key label !pos in
            incr pos;
            k
        | _ -> param_key label 0
      in
      match Hashtbl.find_opt ctx.facts.f_param (node.n_name, key) with
      | Some why -> List.iter (fact_tainted_local why) (pat_idents pat)
      | None -> ())
    params;
  it.expr it node.n_vb.vb_expr;
  (* Result taint: the innermost body's value. *)
  match taint_of body with
  | Some why ->
      fact_add ctx.facts.f_result ctx.facts node.n_name
        (cap_reason (why ^ " -> returned by " ^ node.n_name))
  | None -> ()

(* ------------------------------ driver ----------------------------- *)

let max_rounds = 24

let scan_ex (dirs : string list) : Finding.t list * int =
  let { Deepscan.ld_units; ld_wrappers; _ } = Deepscan.load dirs in
  let mods =
    List.map
      (fun (name, str) ->
        let m_name = Deepscan.after_dunder name in
        let m_nodes, m_idents = collect_nodes ~m_name str in
        { m_name; m_nodes; m_idents })
      ld_units
  in
  let ctx =
    {
      wrappers = ld_wrappers;
      resolver = build_resolver mods;
      facts =
        {
          f_param = Hashtbl.create 128;
          f_field = Hashtbl.create 64;
          f_result = Hashtbl.create 128;
          f_grew = false;
        };
    }
  in
  (* Fixpoint: re-walk every node until no fact table grows. *)
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    ctx.facts.f_grew <- false;
    List.iter
      (fun m -> List.iter (fun n -> analyze ctx m n ~emit:None) m.m_nodes)
      mods;
    continue_ := ctx.facts.f_grew
  done;
  if Sys.getenv_opt "WIRETAINT_DEBUG" <> None then begin
    Hashtbl.iter
      (fun k v -> Printf.eprintf "field %s: %s\n" k v)
      ctx.facts.f_field;
    Hashtbl.iter
      (fun (n, k) v -> Printf.eprintf "param %s %s: %s\n" n k v)
      ctx.facts.f_param;
    Hashtbl.iter
      (fun n v -> Printf.eprintf "result %s: %s\n" n v)
      ctx.facts.f_result
  end;
  (* Emission pass, with dedup. Crypto primitives index by byte-ranged
     values by construction; like deepscan's d5, crypto/ is exempt. *)
  let findings = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun node ->
          if not (Deepscan.contains_sub node.n_file "crypto/") then
            let emit ~rule ~line ~msg ~allowed =
              let f = Finding.v ~file:node.n_file ~line ~rule ~message:msg in
              let f = if SS.mem rule allowed then Finding.suppress f else f in
              let key =
                Printf.sprintf "%s|%s|%d|%s" f.Finding.rule f.Finding.file
                  f.Finding.line f.Finding.message
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                findings := f :: !findings
              end
            in
            analyze ctx m node ~emit:(Some emit))
        m.m_nodes)
    mods;
  (List.sort Finding.order !findings, List.length ld_units)

let scan (dirs : string list) : Finding.t list * int = scan_ex dirs

let run_cli (args : string list) : int =
  match Lint.Baseline.parse_args args with
  | Error msg ->
      prerr_endline ("colibri_wiretaint: " ^ msg);
      2
  | Ok (_, _, []) ->
      prerr_endline
        "usage: colibri_wiretaint [--json] [--baseline FILE] <dir> [<dir> ...]";
      2
  | Ok (json, baseline, dirs) ->
      let findings, scanned = scan dirs in
      Lint.Baseline.run_report ~tool:"colibri-wiretaint" ~scanned
        ~unit_name:"module" ~json ~baseline findings
