(* The rule registry and the six shipped rules.

   Every rule is a purely syntactic pass over the 5.1 parsetree
   (compiler-libs [Ast_iterator]) — no typing information. Rules that
   need to distinguish "bound here" from "captured"/"Stdlib" thread a
   lexical environment through binders ([scoped_iterator]); the
   heuristics and their known blind spots are documented per rule and
   in DESIGN.md. *)

open Parsetree

type rule = {
  id : string;
  severity : Diagnostic.severity;
  doc : string;
  check : file:string -> Parsetree.structure -> Diagnostic.t list;
}

(* ---------- shared helpers ---------- *)

let diag ~file ~rule ~severity loc message =
  let p = loc.Location.loc_start in
  {
    Diagnostic.file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    severity;
    message;
  }

let flatten lid = Longident.flatten lid

let rec head_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten txt)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> head_path e
  | _ -> None

(* Names bound by a pattern (deep). *)
let rec pat_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p)) -> pat_vars acc p
  | Ppat_variant (_, Some p) -> pat_vars acc p
  | Ppat_record (fields, _) ->
    List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fields
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p
    ->
    pat_vars acc p
  | _ -> acc

module Env = struct
  type t = (string, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let mem (t : t) name = Hashtbl.mem t name

  (* Hashtbl add/remove act as a per-key stack, so shadowing unwinds
     correctly. *)
  let bind (t : t) names f =
    List.iter (fun n -> Hashtbl.add t n ()) names;
    Fun.protect f ~finally:(fun () -> List.iter (Hashtbl.remove t) names)
end

(* An [Ast_iterator] that calls [on_expr] on every expression while
   keeping [env] consistent with the lexical scope: let/fun/for/case
   binders and structure-level values are pushed for exactly the
   subtrees they dominate. [on_open] lets a rule react to local opens
   (e.g. [Q.Infix.( ... )] rebinding comparison operators). *)
let scoped_iterator (env : Env.t) ~on_expr ?(on_open = fun _ -> []) () =
  let super = Ast_iterator.default_iterator in
  let expr self e =
    on_expr e;
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let names = List.concat_map (fun vb -> pat_vars [] vb.pvb_pat) vbs in
      let visit () = List.iter (fun vb -> self.Ast_iterator.expr self vb.pvb_expr) vbs in
      (match rf with
      | Asttypes.Recursive ->
        Env.bind env names (fun () ->
            visit ();
            self.Ast_iterator.expr self body)
      | Asttypes.Nonrecursive ->
        visit ();
        Env.bind env names (fun () -> self.Ast_iterator.expr self body))
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (self.Ast_iterator.expr self) default;
      Env.bind env (pat_vars [] pat) (fun () -> self.Ast_iterator.expr self body)
    | Pexp_for (pat, lo, hi, _, body) ->
      self.Ast_iterator.expr self lo;
      self.Ast_iterator.expr self hi;
      Env.bind env (pat_vars [] pat) (fun () -> self.Ast_iterator.expr self body)
    | Pexp_open (od, body) ->
      let extra =
        match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> on_open (flatten txt)
        | _ -> []
      in
      Env.bind env extra (fun () -> self.Ast_iterator.expr self body)
    | _ -> super.expr self e
  in
  let case self c =
    self.Ast_iterator.pat self c.pc_lhs;
    Env.bind env (pat_vars [] c.pc_lhs) (fun () ->
        Option.iter (self.Ast_iterator.expr self) c.pc_guard;
        self.Ast_iterator.expr self c.pc_rhs)
  in
  let structure self items =
    (* Structure-level values scope over the remaining items. *)
    let rec go = function
      | [] -> ()
      | it :: rest -> (
        match it.pstr_desc with
        | Pstr_value (rf, vbs) ->
          let names = List.concat_map (fun vb -> pat_vars [] vb.pvb_pat) vbs in
          let visit () =
            List.iter (fun vb -> self.Ast_iterator.expr self vb.pvb_expr) vbs
          in
          (match rf with
          | Asttypes.Recursive -> Env.bind env names (fun () -> visit (); go rest)
          | Asttypes.Nonrecursive ->
            visit ();
            Env.bind env names (fun () -> go rest))
        | _ ->
          super.structure_item self it;
          go rest)
    in
    go items
  in
  { super with expr; case; structure }

(* Peel fun/newtype/constraint wrappers; used to recognise function
   literals. *)
let is_fun_literal e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> go body
    | _ -> false
  in
  go e

(* ---------- mutation detection (shared by domain-safety and
   machine-purity) ---------- *)

(* Resolve the expression being mutated down to its root name. *)
let rec target_head e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> `Name n
  | Pexp_ident _ -> `Global (* qualified path: module-level state *)
  | Pexp_field (e, _) -> target_head e
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              { txt = Longident.Ldot (Longident.Lident ("Array" | "Bytes"), ("get" | "unsafe_get")); _ };
          _;
        },
        (_, a) :: _ ) ->
    target_head a
  | Pexp_constraint (e, _) -> target_head e
  | _ -> `Unknown

let nolabel_args args =
  List.filter_map
    (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
    args

(* If [e] is a write to mutable state, return the written expression
   and a description of the write. Atomic.* and Domain.DLS.* are the
   sanctioned cross-domain primitives and are deliberately absent. *)
let mutation_target e =
  match e.pexp_desc with
  | Pexp_setfield (tgt, _, _) -> Some (tgt, "record-field write")
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    let arg n = List.nth_opt (nolabel_args args) n in
    let with_arg n what = Option.map (fun a -> (a, what)) (arg n) in
    match flatten txt with
    | [ ":=" ] -> with_arg 0 "reference assignment"
    | [ ("incr" | "decr") ] -> with_arg 0 "reference increment"
    | [ ("Array" | "Bytes" | "Float" | "Bigarray"); ("set" | "unsafe_set" | "fill") ] ->
      with_arg 0 "array write"
    | [ ("Array" | "Bytes"); "blit" ] -> with_arg 2 "array blit"
    | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") ]
      ->
      with_arg 0 "hashtable write"
    | [ "Buffer"; f ] when String.length f >= 4 && String.sub f 0 4 = "add_" ->
      with_arg 1 "buffer write"
    | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> with_arg 0 "buffer write"
    | [ ("Queue" | "Stack"); ("add" | "push") ] -> with_arg 1 "queue/stack write"
    | [ ("Queue" | "Stack"); ("pop" | "take" | "clear" | "pop_opt" | "take_opt") ] ->
      with_arg 0 "queue/stack write"
    | _ -> None)
  | _ -> None

(* Walk a function literal with a fresh environment so that anything
   not bound inside the closure is, by construction, captured. Calls
   [on_capture] for writes to captured/global mutable state. *)
let analyze_closure ~on_capture ~extra_check closure =
  let env = Env.create () in
  let on_expr e =
    (match mutation_target e with
    | Some (tgt, what) -> (
      match target_head tgt with
      | `Name n when not (Env.mem env n) -> on_capture e.pexp_loc what (Some n)
      | `Global -> on_capture e.pexp_loc what None
      | `Name _ | `Unknown -> ())
    | None -> ());
    extra_check env e
  in
  let it = scoped_iterator env ~on_expr () in
  it.Ast_iterator.expr it closure

(* ---------- rule: poly-compare ---------- *)

let list_returning =
  [
    "sort"; "sort_uniq"; "stable_sort"; "fast_sort"; "map"; "mapi"; "rev_map";
    "filter"; "filter_map"; "init"; "concat"; "concat_map"; "rev"; "append";
    "of_seq"; "merge"; "flatten"; "cons";
  ]

(* Q./Z. functions that do NOT return a Q/Z value (so comparing their
   result with builtin operators is fine). *)
let qz_scalar_returning =
  [
    "compare"; "equal"; "sign"; "hash"; "to_int"; "to_int_opt"; "to_string";
    "to_float"; "is_zero"; "is_integer"; "is_one"; "num_bits"; "pp";
  ]

(* Syntactic evidence that an operand is structured data (or an exact
   Q/Z scalar), for which builtin polymorphic comparison is a
   determinism/correctness hazard. *)
let rec is_structural e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (e, _) -> is_structural e
  | Pexp_ident { txt; _ } -> (
    match flatten txt with
    | ("Q" | "Z") :: rest -> (
      match List.rev rest with
      | fn :: _ -> not (List.mem fn qz_scalar_returning)
      | [] -> false)
    | _ -> false)
  | Pexp_apply (f, _) -> (
    match head_path f with
    | Some [ "List"; fn ] -> List.mem fn list_returning
    | Some [ "Array"; "to_list" ] -> true
    | Some (("Q" | "Z") :: rest) -> (
      match List.rev rest with
      | fn :: _ -> not (List.mem fn qz_scalar_returning)
      | [] -> false)
    | _ -> false)
  | _ -> false

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let poly_compare_rule =
  let id = "poly-compare" in
  let check ~file str =
    let out = ref [] in
    let env = Env.create () in
    let add loc msg =
      out := diag ~file ~rule:id ~severity:Diagnostic.Error loc msg :: !out
    in
    let on_expr e =
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident "compare"; _ }
        when not (Env.mem env "compare") ->
        add e.pexp_loc
          "bare polymorphic `compare` — use Int.compare / String.compare / \
           Q.compare / a typed comparator"
      | Pexp_ident
          { txt = Longident.Ldot (Longident.Lident ("Stdlib" | "Pervasives"), "compare"); _ } ->
        add e.pexp_loc
          "Stdlib.compare is polymorphic — use a typed comparator"
      | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Hashtbl", "hash"); _ } ->
        add e.pexp_loc
          "Hashtbl.hash is polymorphic (and truncates) — use a typed hash \
           (e.g. Q.hash/Z.hash)"
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ])
        when List.mem op comparison_ops
             && (not (Env.mem env op))
             && (is_structural a || is_structural b) ->
        add e.pexp_loc
          (Printf.sprintf
             "polymorphic `%s` on structured/exact data — use List.equal, \
              Option.equal, Q.equal/Q.compare or a typed comparator"
             op)
      | _ -> ()
    in
    (* Local opens of an *.Infix module rebind the comparison
       operators to typed ones. *)
    let on_open path =
      match List.rev path with
      | "Infix" :: _ -> "compare" :: comparison_ops
      | _ -> []
    in
    let it = scoped_iterator env ~on_expr ~on_open () in
    it.Ast_iterator.structure it str;
    !out
  in
  {
    id;
    severity = Diagnostic.Error;
    doc =
      "Bare `compare`, Stdlib.compare, Hashtbl.hash, or builtin =/<>/</> on \
       structured or exact-arithmetic operands. Polymorphic comparison on \
       Q.t/Z.t compares representations, not values, and silently breaks \
       byte-identical result tables.";
    check;
  }

(* ---------- rule: nondet-source ---------- *)

let nondet_rule =
  let id = "nondet-source" in
  let check ~file str =
    (* lib/obs owns the clock: the tracing layer is the sanctioned
       consumer of wall/monotonic time. *)
    let exempt =
      let norm = String.concat "/" (String.split_on_char '\\' file) in
      let rec has_sub s sub i =
        if i + String.length sub > String.length s then false
        else if String.sub s i (String.length sub) = sub then true
        else has_sub s sub (i + 1)
      in
      has_sub norm "lib/obs/" 0
    in
    if exempt then []
    else begin
      let out = ref [] in
      let add loc msg =
        out := diag ~file ~rule:id ~severity:Diagnostic.Error loc msg :: !out
      in
      let super = Ast_iterator.default_iterator in
      let expr self e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          match flatten txt with
          | "Random" :: rest when (match rest with "State" :: _ -> false | _ -> true) ->
            add e.pexp_loc
              "global Random state is nondeterministic across runs — thread \
               an explicitly seeded Random.State.t instead"
          | [ "Sys"; "time" ]
          | [ "Unix"; ("time" | "gettimeofday" | "gmtime" | "localtime") ] ->
            add e.pexp_loc
              "wall-clock reads are nondeterministic — certificate paths \
               must not depend on time"
          | ("Monotonic_clock" | "Mtime_clock") :: _ ->
            add e.pexp_loc
              "clock reads outside lib/obs — route timing through the \
               observability layer"
          | _ -> ())
        | _ -> ());
        super.expr self e
      in
      let it = { super with expr } in
      it.Ast_iterator.structure it str;
      !out
    end
  in
  {
    id;
    severity = Diagnostic.Error;
    doc =
      "Unseeded randomness (global Random.*) or wall-clock reads \
       (Sys.time, Unix.gettimeofday, raw monotonic clocks) outside \
       lib/obs. Randomness must flow through explicitly seeded \
       Random.State values so every table replays byte-identically.";
    check;
  }

(* ---------- rule: domain-safety ---------- *)

let is_pool_map path =
  match List.rev path with
  | ("map" | "mapi") :: "Pool" :: _ -> true
  | _ -> false

let domain_safety_rule =
  let id = "domain-safety" in
  let check ~file str =
    let out = ref [] in
    let add loc what name ctx =
      let who =
        match name with
        | Some n -> Printf.sprintf "`%s`" n
        | None -> "module-level state"
      in
      out :=
        diag ~file ~rule:id ~severity:Diagnostic.Error loc
          (Printf.sprintf
             "%s of captured %s inside a closure passed to %s — tasks run on \
              separate domains; use Atomic, Domain.DLS, or task-local state"
             what who ctx)
        :: !out
    in
    let super = Ast_iterator.default_iterator in
    let expr self e =
      (match e.pexp_desc with
      | Pexp_apply (f, args) -> (
        let is_domain_spawn = function
          | [ "Domain"; "spawn" ] -> true
          | _ -> false
        in
        match head_path f with
        | Some path when is_pool_map path || is_domain_spawn path ->
          let ctx = if is_pool_map path then "Pool.map" else "Domain.spawn" in
          List.iter
            (fun (_, a) ->
              if is_fun_literal a then
                analyze_closure
                  ~on_capture:(fun loc what name -> add loc what name ctx)
                  ~extra_check:(fun _ _ -> ())
                  a)
            args
        | _ -> ())
      | _ -> ());
      super.expr self e
    in
    let it = { super with expr } in
    it.Ast_iterator.structure it str;
    !out
  in
  {
    id;
    severity = Diagnostic.Error;
    doc =
      "A closure passed to Ld_pool.Pool.map / Domain.spawn writes to \
       mutable state captured from the enclosing scope (ref, array, \
       Hashtbl, record field) without Atomic/Domain.DLS: a data race \
       under the multicore fan-out. State created inside the task body \
       is fine.";
    check;
  }

(* ---------- rule: machine-purity ---------- *)

let io_heads =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_int" ]; [ "print_char" ]; [ "print_float" ]; [ "prerr_string" ];
    [ "prerr_endline" ]; [ "read_line" ]; [ "read_int" ]; [ "open_in" ];
    [ "open_out" ]; [ "output_string" ]; [ "output_char" ]; [ "output_value" ];
    [ "input_line" ]; [ "input_value" ]; [ "exit" ];
    [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Printf"; "fprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ];
  ]

let machine_purity_rule =
  let id = "machine-purity" in
  let check ~file str =
    let out = ref [] in
    let add loc msg =
      out := diag ~file ~rule:id ~severity:Diagnostic.Error loc msg :: !out
    in
    let analyze name fn =
      analyze_closure fn
        ~on_capture:(fun loc what who ->
          let target =
            match who with Some n -> Printf.sprintf " of `%s`" n | None -> ""
          in
          add loc
            (Printf.sprintf
               "%s%s inside machine transition `%s` — transition functions \
                must be pure (state in, state out)"
               what target name))
        ~extra_check:(fun _ e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            let path = flatten txt in
            if List.mem path io_heads || (match path with "Unix" :: _ -> true | _ -> false)
            then
              add e.pexp_loc
                (Printf.sprintf
                   "I/O inside machine transition `%s` — transition \
                    functions must be pure"
                   name)
            else
              match path with
              | "Random" :: rest when (match rest with "State" :: _ -> false | _ -> true) ->
                add e.pexp_loc
                  (Printf.sprintf
                     "global randomness inside machine transition `%s` — \
                      use the rng threaded through the machine state"
                     name)
              | _ -> ())
          | _ -> ())
    in
    let transition_names = [ "step"; "send" ] in
    let super = Ast_iterator.default_iterator in
    let handle_vb vb =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ }
        when List.mem txt transition_names && is_fun_literal vb.pvb_expr ->
        analyze txt vb.pvb_expr
      | _ -> ()
    in
    let expr self e =
      (match e.pexp_desc with
      | Pexp_let (_, vbs, _) -> List.iter handle_vb vbs
      | Pexp_record (fields, _) ->
        List.iter
          (fun (({ txt; _ } : Longident.t Location.loc), value) ->
            match txt with
            | Longident.Lident n when List.mem n transition_names && is_fun_literal value ->
              analyze n value
            | _ -> ())
          fields
      | _ -> ());
      super.expr self e
    in
    let structure_item self it =
      (match it.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter handle_vb vbs
      | _ -> ());
      super.structure_item self it
    in
    let it = { super with expr; structure_item } in
    it.Ast_iterator.structure it str;
    !out
  in
  {
    id;
    severity = Diagnostic.Error;
    doc =
      "A `step`/`send` machine transition function performs I/O, uses \
       global randomness, or writes to captured mutable state. \
       Transitions must be pure functions of the machine state so runs \
       replay identically under every executor.";
    check;
  }

(* ---------- rule: obj-magic ---------- *)

let obj_magic_rule =
  let id = "obj-magic" in
  let check ~file str =
    let out = ref [] in
    let super = Ast_iterator.default_iterator in
    let expr self e =
      (match e.pexp_desc with
      | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Obj", ("magic" | "repr" | "obj")); _ } ->
        out :=
          diag ~file ~rule:id ~severity:Diagnostic.Error e.pexp_loc
            "Obj.magic/Obj.repr defeats the type system — no unchecked \
             casts in certificate-bearing code"
          :: !out
      | _ -> ());
      super.expr self e
    in
    let it = { super with expr } in
    it.Ast_iterator.structure it str;
    !out
  in
  {
    id;
    severity = Diagnostic.Error;
    doc = "Any use of Obj.magic / Obj.repr / Obj.obj.";
    check;
  }

(* ---------- rule: exn-swallow ---------- *)

let exn_swallow_rule =
  let id = "exn-swallow" in
  let check ~file str =
    let out = ref [] in
    let add loc =
      out :=
        diag ~file ~rule:id ~severity:Diagnostic.Error loc
          "catch-all `with _ ->` swallows every exception (including \
           Stack_overflow and assertion failures) — match specific \
           exceptions, or name and re-raise"
        :: !out
    in
    let catch_all c =
      match (c.pc_lhs.ppat_desc, c.pc_guard) with
      | Ppat_any, None -> Some c.pc_lhs.ppat_loc
      | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ }, None -> Some ppat_loc
      | _ -> None
    in
    let super = Ast_iterator.default_iterator in
    let expr self e =
      (match e.pexp_desc with
      | Pexp_try (_, cases) ->
        List.iter (fun c -> Option.iter add (catch_all c)) cases
      | Pexp_match (_, cases) ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> Option.iter add (catch_all c)
            | _ -> ())
          cases
      | _ -> ());
      super.expr self e
    in
    let it = { super with expr } in
    it.Ast_iterator.structure it str;
    !out
  in
  {
    id;
    severity = Diagnostic.Error;
    doc =
      "try ... with _ -> (or `exception _` match cases) without a guard: \
       swallowing every exception hides adversary bugs and turns \
       infrastructure failures into wrong tables.";
    check;
  }

let all =
  [
    poly_compare_rule;
    nondet_rule;
    domain_safety_rule;
    machine_purity_rule;
    obj_magic_rule;
    exn_swallow_rule;
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) all
