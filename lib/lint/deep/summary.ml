(* Per-unit extraction summaries and their persistent codec.

   A summary records, for every function-like node of one compilation
   unit: the effects its body performs *directly* (each with the
   source location and a human-readable witness), and the project
   functions it calls (the call-graph edges). Nothing interprocedural
   lives here — that is Callgraph's job — which is exactly what makes
   a summary cacheable under the cmt digest alone.

   The codec is a line/tab format in the style of the repo's other
   hand-rolled persistence: a version header, then one record per
   line. Keys, paths and witness strings never contain tabs or
   newlines (they are module paths and file names), so no escaping is
   needed; [of_string] validates shape and raises [Failure] on
   anything unexpected, which the driver treats as a cache miss. *)

type loc = { l_file : string; l_line : int; l_col : int }

let loc_to_string l = Printf.sprintf "%s:%d" l.l_file l.l_line

(* Why a node is an analysis entry point (drives which deep rule its
   transitive effects trigger). *)
type entry_kind =
  | Plain (* ordinary function: deep-nondet-source only *)
  | Transition of string (* machine step/send: deep-machine-purity *)
  | Pool_closure of string (* literal closure at a Pool.map/Domain.spawn
                              call site: deep-domain-safety. The string
                              is the calling context ("Pool.map", ...) *)

type direct = {
  d_kind : Effects.kind;
  d_what : string; (* witness, e.g. "Random.int" or "incr `tally`" *)
  d_loc : loc;
}

type call = { c_callee : string; c_loc : loc (* callee = dotted key *) }

type fn = {
  f_key : string; (* canonical dotted key, e.g. "Ld_pool.Pool.map" *)
  f_display : string; (* short name used in diagnostic prose *)
  f_entry : entry_kind;
  f_loc : loc;
  f_direct : direct list;
  f_calls : call list;
}

(* A named project function referenced *as* an entry: a step/send
   record field set to an identifier, or a function passed by name to
   Pool.map / Domain.spawn. Resolved against the whole-program graph
   after all units are loaded. *)
type entry_ref = {
  r_entry : entry_kind; (* Transition _ or Pool_closure _ *)
  r_callee : string; (* dotted key of the referenced function *)
  r_loc : loc;
}

type t = {
  u_name : string; (* unit name as in the cmt, e.g. "Ld_pool__Pool" *)
  u_source : string; (* source path relative to the repo root, or "" *)
  u_fns : fn list;
  u_refs : entry_ref list;
}

let version_line = "ld-lint-deep-summary 1"

let entry_to_string = function
  | Plain -> "plain"
  | Transition n -> "transition:" ^ n
  | Pool_closure c -> "pool:" ^ c

let entry_of_string s =
  match String.index_opt s ':' with
  | None when s = "plain" -> Plain
  | None -> failwith ("Summary.entry_of_string: " ^ s)
  | Some i -> (
    let head = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match head with
    | "transition" -> Transition arg
    | "pool" -> Pool_closure arg
    | _ -> failwith ("Summary.entry_of_string: " ^ s))

let loc_fields l = Printf.sprintf "%s\t%d\t%d" l.l_file l.l_line l.l_col

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf version_line;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "unit\t%s\t%s\n" t.u_name t.u_source);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "fn\t%s\t%s\t%s\t%s\n" f.f_key f.f_display
           (entry_to_string f.f_entry) (loc_fields f.f_loc));
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf "d\t%s\t%s\t%s\n"
               (Effects.to_string d.d_kind)
               d.d_what (loc_fields d.d_loc)))
        f.f_direct;
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "c\t%s\t%s\n" c.c_callee (loc_fields c.c_loc)))
        f.f_calls)
    t.u_fns;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "r\t%s\t%s\t%s\n"
           (entry_to_string r.r_entry)
           r.r_callee (loc_fields r.r_loc)))
    t.u_refs;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let loc_of_fields = function
  | [ f; ln; c ] -> (
    match (int_of_string_opt ln, int_of_string_opt c) with
    | Some l_line, Some l_col -> { l_file = f; l_line; l_col }
    | _ -> failwith "Summary.of_string: bad location")
  | _ -> failwith "Summary.of_string: bad location arity"

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | v :: rest when v = version_line ->
    let u_name = ref "" and u_source = ref "" in
    let fns = ref [] and refs = ref [] in
    (* current fn accumulators, in reverse *)
    let cur = ref None in
    let flush () =
      match !cur with
      | None -> ()
      | Some (f, ds, cs) ->
        fns := { f with f_direct = List.rev ds; f_calls = List.rev cs } :: !fns;
        cur := None
    in
    let saw_end = ref false in
    List.iter
      (fun line ->
        if line = "" || !saw_end then ()
        else
          match String.split_on_char '\t' line with
          | [ "end" ] ->
            flush ();
            saw_end := true
          | "unit" :: name :: src :: [] ->
            u_name := name;
            u_source := src
          | "fn" :: key :: display :: entry :: locf ->
            flush ();
            cur :=
              Some
                ( {
                    f_key = key;
                    f_display = display;
                    f_entry = entry_of_string entry;
                    f_loc = loc_of_fields locf;
                    f_direct = [];
                    f_calls = [];
                  },
                  [],
                  [] )
          | "d" :: kind :: what :: locf -> (
            match !cur with
            | None -> failwith "Summary.of_string: direct before fn"
            | Some (f, ds, cs) ->
              let d =
                {
                  d_kind = Effects.of_string kind;
                  d_what = what;
                  d_loc = loc_of_fields locf;
                }
              in
              cur := Some (f, d :: ds, cs))
          | "c" :: callee :: locf -> (
            match !cur with
            | None -> failwith "Summary.of_string: call before fn"
            | Some (f, ds, cs) ->
              let c = { c_callee = callee; c_loc = loc_of_fields locf } in
              cur := Some (f, ds, c :: cs))
          | "r" :: entry :: callee :: locf ->
            flush ();
            refs :=
              {
                r_entry = entry_of_string entry;
                r_callee = callee;
                r_loc = loc_of_fields locf;
              }
              :: !refs
          | _ -> failwith ("Summary.of_string: bad record: " ^ line))
      rest;
    if not !saw_end then failwith "Summary.of_string: truncated";
    {
      u_name = !u_name;
      u_source = !u_source;
      u_fns = List.rev !fns;
      u_refs = List.rev !refs;
    }
  | _ -> failwith "Summary.of_string: bad version header"
