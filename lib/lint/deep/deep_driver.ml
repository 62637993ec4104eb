(* The deep analysis driver: cmt discovery, summary caching, graph
   solving, diagnostic rendering and suppression filtering.

   Caching: a unit's summary depends only on its .cmt (dune rebuilds
   the cmt whenever the source changes, comments included, and the
   extraction reads nothing else except suppression comments — which
   live in the source whose change also rebuilds the cmt). So the
   store key is the cmt's own digest, and a warm run over an unchanged
   repo does zero [read_cmt]/extraction work: every summary is a
   store hit. A corrupt record ([Store.Store_corrupt]) or a stale
   codec version ([Summary.of_string] failure) self-heals exactly like
   lib/core/cache_store.ml: delete, re-extract, re-put. *)

module Diagnostic = Ld_lint.Diagnostic
module Suppress = Ld_lint.Suppress
module Store = Ld_store.Store
module Obs = Ld_obs.Obs

let c_units = Obs.Counter.make "lint.deep.units"
let c_extracted = Obs.Counter.make "lint.deep.extracted"
let c_cached = Obs.Counter.make "lint.deep.cached"

type config = {
  cmt_roots : string list; (* directories walked for .cmt files *)
  source_roots : string list; (* tried in order to open source files *)
  skip : string list; (* path substrings excluded from the walk *)
  store : Store.t option; (* summary cache; None = always extract *)
}

(* The two fixture trees hold deliberately-dirty code. *)
let default_skip = [ "lint_fixtures"; "deep_fixtures" ]

let rules_meta =
  [
    ( "deep-nondet-source",
      Diagnostic.Error,
      "A function transitively reaches unseeded randomness or a clock \
       read through its callees. Direct uses are the shallow rule's \
       job; this fires only on taint inherited through calls, and \
       prints the chain." );
    ( "deep-domain-safety",
      Diagnostic.Error,
      "A closure or function passed to Ld_pool.Pool.map / Domain.spawn \
       transitively mutates state shared across domains (possibly \
       several calls down)." );
    ( "deep-machine-purity",
      Diagnostic.Error,
      "A machine transition (step/send) transitively performs I/O, \
       reads clocks, draws randomness, or mutates shared state through \
       its callees." );
  ]

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let norm_slashes p = String.concat "/" (String.split_on_char '\\' p)

let collect_cmts config =
  let skip_path p =
    let p = norm_slashes p in
    List.exists (fun sub -> has_sub p sub) config.skip
  in
  let rec walk acc path =
    if not (Sys.file_exists path) then acc
    else if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             let sub = Filename.concat path entry in
             if skip_path sub then acc else walk acc sub)
           acc
    else if Filename.check_suffix path ".cmt" then path :: acc
    else acc
  in
  List.fold_left walk [] config.cmt_roots |> List.sort_uniq String.compare

let read_source config rel =
  let candidates =
    List.map (fun root -> Filename.concat root rel) config.source_roots @ [ rel ]
  in
  List.find_map
    (fun p ->
      if Sys.file_exists p && not (Sys.is_directory p) then
        Some (In_channel.with_open_bin p In_channel.input_all)
      else None)
    candidates

let extract_summary config path =
  Obs.Counter.incr c_extracted;
  let infos = Cmt_format.read_cmt path in
  let unit_name = infos.Cmt_format.cmt_modname in
  match infos.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
    let source = Option.value infos.Cmt_format.cmt_sourcefile ~default:"" in
    let source_text = if source = "" then None else read_source config source in
    Extract.of_structure ~unit_name ~source ~source_text str
  | _ -> { Summary.u_name = unit_name; u_source = ""; u_fns = []; u_refs = [] }

let store_key path =
  Printf.sprintf "ld-lint-deep/v1 unit=%s cmt=%s" (Filename.basename path)
    (Digest.to_hex (Digest.file path))

let load_summary config path =
  Obs.Counter.incr c_units;
  match config.store with
  | None -> extract_summary config path
  | Some st -> (
    let key = store_key path in
    let recompute () =
      let s = extract_summary config path in
      Store.put st ~key (Summary.to_string s);
      s
    in
    match Store.get st ~key with
    | Some payload -> (
      match Summary.of_string payload with
      | s ->
        Obs.Counter.incr c_cached;
        s
      | exception Failure _ ->
        (* framed record validated but the codec changed underneath:
           treat as stale and rebuild *)
        Store.delete st ~key;
        recompute ())
    | None -> recompute ()
    | exception Store.Store_corrupt _ ->
      Store.delete st ~key;
      recompute ())

(* ---------- diagnostics ---------- *)

let diag ~loc ~rule message =
  {
    Diagnostic.file = loc.Summary.l_file;
    line = loc.Summary.l_line;
    col = loc.Summary.l_col;
    rule;
    severity = Diagnostic.Error;
    message;
  }

let entry_diagnostics graph (fn : Summary.fn) =
  let kinds = Callgraph.effect_set graph fn.f_key in
  let with_chain kind = Callgraph.chain_text graph fn.f_key kind in
  match fn.f_entry with
  | Summary.Transition name ->
    List.filter_map
      (fun kind ->
        if Effects.mem kinds kind then
          Some
            (diag ~loc:fn.f_loc ~rule:"deep-machine-purity"
               (Printf.sprintf
                  "machine transition `%s` transitively %s — transitions \
                   must be pure: %s"
                  name (Effects.describe kind) (with_chain kind)))
        else None)
      Effects.all
  | Summary.Pool_closure context ->
    if Effects.mem kinds Effects.Mutates_shared then
      [
        diag ~loc:fn.f_loc ~rule:"deep-domain-safety"
          (Printf.sprintf
             "closure passed to %s transitively mutates shared state — \
              tasks run on separate domains: %s"
             context
             (with_chain Effects.Mutates_shared));
      ]
    else []
  | Summary.Plain ->
    (* Transitive-only reach of nondeterminism: a *direct* use is the
       shallow rule's finding (or carries a reasoned allow, which
       already stopped it from entering the summary). *)
    List.filter_map
      (fun kind ->
        let direct_here =
          List.exists (fun (d : Summary.direct) -> d.d_kind = kind) fn.f_direct
        in
        if Effects.mem kinds kind && not direct_here then
          Some
            (diag ~loc:fn.f_loc ~rule:"deep-nondet-source"
               (Printf.sprintf "`%s` transitively %s: %s" fn.f_display
                  (Effects.describe kind) (with_chain kind)))
        else None)
      [ Effects.Nondet; Effects.Reads_clock ]

let ref_diagnostics graph (r : Summary.entry_ref) =
  match Callgraph.find graph r.r_callee with
  | None -> []
  | Some _ -> (
    let kinds = Callgraph.effect_set graph r.r_callee in
    let with_chain kind = Callgraph.chain_text graph r.r_callee kind in
    match r.r_entry with
    | Summary.Transition name ->
      List.filter_map
        (fun kind ->
          if Effects.mem kinds kind then
            Some
              (diag ~loc:r.r_loc ~rule:"deep-machine-purity"
                 (Printf.sprintf
                    "machine transition `%s` (= %s) transitively %s — \
                     transitions must be pure: %s"
                    name r.r_callee (Effects.describe kind) (with_chain kind)))
          else None)
        Effects.all
    | Summary.Pool_closure context ->
      if Effects.mem kinds Effects.Mutates_shared then
        [
          diag ~loc:r.r_loc ~rule:"deep-domain-safety"
            (Printf.sprintf
               "`%s` passed to %s transitively mutates shared state — \
                tasks run on separate domains: %s"
               r.r_callee context
               (with_chain Effects.Mutates_shared));
        ]
      else []
    | Summary.Plain -> [])

(* Suppression pass over the final diagnostics, reading each source
   file once. A deep finding is silenced by an `ld-lint: allow
   deep-...` at its anchor (the entry's definition or reference). *)
let filter_suppressed config diags =
  let cache = Hashtbl.create 16 in
  let suppress_for file =
    match Hashtbl.find_opt cache file with
    | Some s -> s
    | None ->
      let s = Option.map Suppress.of_source (read_source config file) in
      Hashtbl.add cache file s;
      s
  in
  List.filter
    (fun (d : Diagnostic.t) ->
      match suppress_for d.file with
      | None -> true
      | Some sup -> not (Suppress.allowed sup ~rule:d.rule ~line:d.line))
    diags

let analyze config =
  let summaries = List.map (load_summary config) (collect_cmts config) in
  let graph = Callgraph.build summaries in
  Callgraph.solve graph;
  let entry_diags =
    List.concat_map
      (fun key ->
        match Callgraph.find graph key with
        | Some node -> entry_diagnostics graph node.Callgraph.fn
        | None -> [])
      graph.Callgraph.order
  in
  let ref_diags =
    List.concat_map
      (fun (u : Summary.t) -> List.concat_map (ref_diagnostics graph) u.u_refs)
      summaries
  in
  entry_diags @ ref_diags
  |> filter_suppressed config
  |> Ld_lint.Driver.dedup_sorted
