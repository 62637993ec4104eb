module Ec = Ld_models.Ec
module Q = Ld_arith.Q
module Fm = Ld_fm.Fm
(* ---- binary codecs ----

   One encoding for certificate files and the persistent store, which
   must write and reparse multi-megabyte level-18 graphs at disk speed.
   Layout: ints are 64-bit little-endian, strings (rational weights via
   [Q.to_string]) are length-prefixed, arrays are count-prefixed.
   Truncated or garbled input surfaces as [Failure] from the explicit
   bounds checks — never an out-of-bounds crash. *)

let bin_truncated () = failwith "Certificate_io: truncated binary record"

let bput_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let bget_int s pos =
  if !pos + 8 > String.length s then bin_truncated ();
  let v = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let bput_str buf x =
  bput_int buf (String.length x);
  Buffer.add_string buf x

let bget_str s pos =
  let n = bget_int s pos in
  if n < 0 || !pos + n > String.length s then bin_truncated ();
  let x = String.sub s !pos n in
  pos := !pos + n;
  x

let graph_to_binary buf g =
  bput_int buf (Ec.n g);
  bput_int buf (Ec.num_edges g);
  for j = 0 to Ec.num_edges g - 1 do
    let (e : Ec.edge) = Ec.edge g j in
    bput_int buf e.u;
    bput_int buf e.v;
    bput_int buf e.colour
  done;
  bput_int buf (Ec.num_loops g);
  for j = 0 to Ec.num_loops g - 1 do
    let (l : Ec.loop) = Ec.loop g j in
    bput_int buf l.node;
    bput_int buf l.colour
  done

let graph_of_binary s ~pos =
  let n = bget_int s pos in
  let num_edges = bget_int s pos in
  if num_edges < 0 then bin_truncated ();
  let edges =
    Array.init num_edges (fun _ ->
        let u = bget_int s pos in
        let v = bget_int s pos in
        let colour = bget_int s pos in
        { Ec.u; v; colour })
  in
  let num_loops = bget_int s pos in
  if num_loops < 0 then bin_truncated ();
  let loops =
    Array.init num_loops (fun _ ->
        let node = bget_int s pos in
        let colour = bget_int s pos in
        { Ec.node; colour })
  in
  Ec.create_arrays ~n ~edges ~loops

let fm_to_binary buf y =
  let g = Fm.graph y in
  bput_int buf (Ec.num_edges g);
  for j = 0 to Ec.num_edges g - 1 do
    bput_str buf (Q.to_string (Fm.edge_weight y j))
  done;
  bput_int buf (Ec.num_loops g);
  for j = 0 to Ec.num_loops g - 1 do
    bput_str buf (Q.to_string (Fm.loop_weight y j))
  done

(* The output of a probe, decoded against its graph (weight counts must
   match the graph's edge and loop counts). *)
let fm_of_binary s ~pos graph =
  let ne = bget_int s pos in
  if ne <> Ec.num_edges graph then
    failwith "Certificate_io: binary FM edge count does not match graph";
  let edge_w = Array.init ne (fun _ -> Q.of_string (bget_str s pos)) in
  let nl = bget_int s pos in
  if nl <> Ec.num_loops graph then
    failwith "Certificate_io: binary FM loop count does not match graph";
  let loop_w = Array.init nl (fun _ -> Q.of_string (bget_str s pos)) in
  Fm.create graph ~edge_w ~loop_w

let certificate_to_binary buf (c : Lower_bound.certificate) =
  bput_int buf c.level;
  bput_int buf c.colour;
  graph_to_binary buf c.g_graph;
  graph_to_binary buf c.h_graph;
  bput_int buf c.g_node;
  bput_int buf c.h_node;
  bput_int buf c.g_loop;
  bput_int buf c.h_loop;
  bput_str buf (Q.to_string c.g_weight);
  bput_str buf (Q.to_string c.h_weight);
  bput_int buf (if c.views_checked then 1 else 0)

let certificate_of_binary s ~pos =
  let level = bget_int s pos in
  let colour = bget_int s pos in
  let g_graph = graph_of_binary s ~pos in
  let h_graph = graph_of_binary s ~pos in
  let g_node = bget_int s pos in
  let h_node = bget_int s pos in
  let g_loop = bget_int s pos in
  let h_loop = bget_int s pos in
  let g_weight = Q.of_string (bget_str s pos) in
  let h_weight = Q.of_string (bget_str s pos) in
  let views_checked = bget_int s pos <> 0 in
  {
    Lower_bound.level;
    colour;
    g_graph;
    h_graph;
    g_node;
    h_node;
    g_loop;
    h_loop;
    g_weight;
    h_weight;
    views_checked;
  }

let probe_to_binary buf (p : Lower_bound.probe) =
  bput_int buf p.probe_level;
  graph_to_binary buf p.probe_graph;
  fm_to_binary buf p.probe_base

let probe_of_binary s ~pos =
  let probe_level = bget_int s pos in
  let probe_graph = graph_of_binary s ~pos in
  let probe_base = fm_of_binary s ~pos probe_graph in
  { Lower_bound.probe_level; probe_graph; probe_base }

(* ---- certificate files ----

   magic "LDC1" | MD5 of the payload (16 raw bytes) | payload, where the
   payload is a count followed by that many [certificate_to_binary]
   records. The digest is checked before anything is decoded, as in
   [Ld_store] frames, so a flipped or missing byte anywhere is a
   [Failure], never a quietly different certificate. *)

let magic = "LDC1"
let header_len = String.length magic + 16

let to_string certs =
  let payload = Buffer.create 4096 in
  bput_int payload (List.length certs);
  List.iter (certificate_to_binary payload) certs;
  let payload = Buffer.contents payload in
  String.concat "" [ magic; Digest.string payload; payload ]

let of_string s =
  if String.length s < header_len || String.sub s 0 (String.length magic) <> magic
  then failwith "Certificate_io: not a certificate file (bad magic)";
  let payload = String.sub s header_len (String.length s - header_len) in
  if Digest.string payload <> String.sub s (String.length magic) 16 then
    failwith "Certificate_io: certificate file digest mismatch";
  let pos = ref 0 in
  let count = bget_int payload pos in
  if count < 0 then bin_truncated ();
  let certs = List.init count (fun _ -> certificate_of_binary payload ~pos) in
  if !pos <> String.length payload then
    failwith "Certificate_io: trailing bytes after the last certificate";
  certs

let save path certs =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string certs))

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

(* ---- verification ---- *)

type check = {
  chk_level : int;
  chk_structure : bool;
  chk_views : bool;
  chk_weights_differ : bool;
  chk_outputs : bool option;
}

let check_ok c =
  c.chk_structure && c.chk_views && c.chk_weights_differ
  && (match c.chk_outputs with Some false -> false | Some true | None -> true)

let verify ?algorithm ~delta certs =
  List.map
    (fun (c : Lower_bound.certificate) ->
      let loop_ok g loop_id node =
        loop_id >= 0
        && loop_id < Ec.num_loops g
        &&
        let l = Ec.loop g loop_id in
        l.colour = c.colour && l.node = node
      in
      let chk_structure =
        loop_ok c.g_graph c.g_loop c.g_node
        && loop_ok c.h_graph c.h_loop c.h_node
        && Ec.min_loops c.g_graph >= delta - 1 - c.level
        && Ec.min_loops c.h_graph >= delta - 1 - c.level
        && Ec.max_degree c.g_graph <= delta
        && Ec.max_degree c.h_graph <= delta
        && Ld_check.is_tree_plus_loops c.g_graph
        && Ld_check.is_tree_plus_loops c.h_graph
      in
      let chk_views =
        chk_structure
        && Ld_check.equivalent_radius c.g_graph c.g_node c.h_graph c.h_node
             ~radius:c.level
      in
      let chk_weights_differ = not (Q.equal c.g_weight c.h_weight) in
      let chk_outputs =
        match algorithm with
        | None -> None
        | Some (a : Lower_bound.algorithm) ->
          if not chk_structure then Some false
          else begin
            let yg = a.run c.g_graph and yh = a.run c.h_graph in
            Some
              (Q.equal (Fm.loop_weight yg c.g_loop) c.g_weight
              && Q.equal (Fm.loop_weight yh c.h_loop) c.h_weight)
          end
      in
      { chk_level = c.level; chk_structure; chk_views; chk_weights_differ; chk_outputs })
    certs

let pp_check fmt c =
  Format.fprintf fmt
    "level %d: structure %s, views %s, weights differ %s, outputs %s"
    c.chk_level
    (if c.chk_structure then "ok" else "FAIL")
    (if c.chk_views then "isomorphic" else "FAIL")
    (if c.chk_weights_differ then "ok" else "FAIL")
    (match c.chk_outputs with
    | None -> "not re-run"
    | Some true -> "reproduced"
    | Some false -> "FAIL")
