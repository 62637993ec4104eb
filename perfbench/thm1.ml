(* thm1-cold and thm1-warm: the unfold-and-mix adversary against
   greedy-by-colour, swept over Δ = 2..15, each Δ followed by its
   truncation frontier scan.

   thm1-cold builds every construction from scratch, so the adversary
   layers (probe runs, unfolding, view checks, feasibility) do all the
   work. thm1-warm builds them once into a fresh store during set-up
   and each op reloads them, so the store and the codec do the work.

   The adversary has no random input, so the seed changes nothing here.
   An op visits Δ in ascending order, as `bench` and `ld serve --preload`
   do: the peak heap depends on the order (200–228 MB over orders), so a
   seeded order would make peak_rss_mb follow the seed. *)

open Common
module LB = Ld_core.Lower_bound
module CS = Ld_core.Cache_store
module Store = Ld_store.Store
module Packing = Ld_matching.Packing
module Lift = Ld_cover.Lift
module Refinement = Ld_cover.Refinement
module Fm = Ld_fm.Fm

let algo = Packing.greedy_algorithm

let deltas cfg =
  let top = if cfg.tiny then 6 else 15 in
  List.init (top - 1) (fun i -> i + 2)

(* Keep the first failure of an op; later checks do not overwrite it. *)
let ( &&& ) (a : check) (b : unit -> check) = match a with Ok () -> b () | e -> e

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Smallest truncation the adversary cannot refute. *)
let frontier cache ~delta =
  let rec scan r =
    if r > (2 * delta) + 2 then -1
    else
      match LB.truncated_verdict cache ~rounds:r with
      | `Certified -> r
      | `Refuted -> scan (r + 1)
  in
  scan 0

(* Verdict of every truncation the service mix asks about (0..Δ+2). *)
let verdicts cache ~delta =
  Array.init (delta + 3) (fun rounds ->
      match LB.truncated_verdict cache ~rounds with
      | `Certified -> true
      | `Refuted -> false)

(* Δ−1 certified levels, each with its views checked, and frontier Δ. *)
let check_cache cache ~delta ~frontier : check =
  match LB.cache_outcome cache with
  | LB.Refuted _ -> fail "delta=%d: greedy refuted" delta
  | LB.Certified certs ->
    let n = List.length certs in
    if n <> delta - 1 then fail "delta=%d: %d certified levels, want %d" delta n (delta - 1)
    else if not (List.for_all (fun (c : LB.certificate) -> c.views_checked) certs)
    then fail "delta=%d: a certificate lacks views_checked" delta
    else if frontier <> delta then fail "delta=%d: frontier %d, want %d" delta frontier delta
    else Ok ()

(* ---- traced replay of a cold construction ----

   Every recorded probe is re-run and re-checked, every certificate's
   g/h loop is unfolded again and the base outputs pulled back along
   the lifts, and every certificate's distinguished pair is re-checked
   by a full (not incremental) view refinement. The replay is also a
   second, independent check of the construction. *)

let probe_output probes ~level graph =
  List.find_map
    (fun (p : LB.probe) ->
      if p.probe_level = level && p.probe_graph == graph then Some p.probe_base else None)
    probes

let replay_cold a cache ~delta : check =
  let probes = LB.cache_probes cache in
  let probe_check =
    List.fold_left
      (fun acc (p : LB.probe) ->
        acc &&& fun () ->
        let y = timed a "matching.probe_run_ms" (fun () -> algo.run p.probe_graph) in
        add a "matching.probe_runs" 1.;
        let v = timed a "fm.feasibility_ms" (fun () -> Fm.feasibility_violations y) in
        if not (List.is_empty v) then fail "delta=%d: replayed probe infeasible" delta
        else if not (Fm.equal y p.probe_base) then
          fail "delta=%d: replayed probe output differs" delta
        else Ok ())
      (Ok ()) probes
  in
  let certs =
    match LB.cache_outcome cache with LB.Certified cs -> cs | LB.Refuted (cs, _) -> cs
  in
  let next_level_probe ~level k =
    match List.filter (fun (p : LB.probe) -> p.probe_level = level) probes with
    | l when List.length l = 3 -> Some (List.nth l k).LB.probe_base
    | _ -> None
  in
  (* Level i+1 unfolds level i's g loop (GG, probe 0) and h loop (HH,
     probe 1); the lifted outputs must be the pulled-back ones. *)
  let lift_check (c : LB.certificate) =
    let level = c.level + 1 in
    if level > delta - 2 then Ok ()
    else
      let side graph loop k =
        let cov = timed a "cover.unfold_ms" (fun () -> Lift.unfold_loop graph ~loop_id:loop) in
        match (probe_output probes ~level:c.level graph, next_level_probe ~level k) with
        | Some y, Some y_lift ->
          let pulled = timed a "fm.pull_back_ms" (fun () -> Fm.pull_back cov y) in
          if Fm.equal pulled y_lift then Ok ()
          else fail "delta=%d level=%d: lift output is not the pull-back" delta level
        | _ -> fail "delta=%d level=%d: certificate graph not among the probes" delta level
      in
      side c.g_graph c.g_loop 0 &&& fun () -> side c.h_graph c.h_loop 1
  in
  let views_check (c : LB.certificate) =
    if c.level = 0 then Ok ()
    else if
      timed a "cover.views_ms" (fun () ->
          Refinement.equivalent_radius c.g_graph c.g_node c.h_graph c.h_node
            ~radius:c.level)
    then Ok ()
    else fail "delta=%d level=%d: views differ" delta c.level
  in
  List.fold_left
    (fun acc c -> acc &&& fun () -> lift_check c &&& fun () -> views_check c)
    probe_check certs

(* ---- thm1-cold ---- *)

(* One cold sweep. With [layers], each Δ's construction is replayed
   right after it is built, outside the op's clock. *)
let cold_op cfg ~layers () =
  List.fold_left
    (fun (ms, res) delta ->
      let cache, t_build =
        time_ms (fun () -> LB.build_cache ~check_views:true ~delta algo)
      in
      let fr, t_front = time_ms (fun () -> frontier cache ~delta) in
      let res = res &&& fun () -> check_cache cache ~delta ~frontier:fr in
      let res =
        match layers with
        | None -> res
        | Some a ->
          add a "core.frontier_ms" t_front;
          res &&& fun () -> replay_cold a cache ~delta
      in
      (ms +. t_build +. t_front, res))
    (0., Ok ()) (deltas cfg)

let cold_layer_names =
  [ "matching.probe_run_ms"; "cover.unfold_ms"; "cover.views_ms"; "fm.feasibility_ms";
    "fm.pull_back_ms"; "core.frontier_ms" ]

(* ---- thm1-warm ---- *)

type warm = {
  dir : string;
  expected : (int * bool array) list;  (** Δ -> cold verdicts *)
}

(* Traced set-up replay: every level record of [cache] is encoded and
   written again, into a second store. *)
let replay_save a store cache =
  let delta = LB.cache_delta cache in
  let probes = LB.cache_probes cache in
  match LB.cache_outcome cache with
  | LB.Refuted _ -> ()
  | LB.Certified certs ->
    List.iter
      (fun (c : LB.certificate) ->
        let entry =
          {
            CS.entry_level = c.level;
            entry_certificate = c;
            entry_probes = List.filter (fun (p : LB.probe) -> p.probe_level = c.level) probes;
          }
        in
        let payload = timed a "core.encode_ms" (fun () -> CS.entry_to_string entry) in
        let key = CS.key ~delta ~level:c.level ~algo:algo.name ~check_views:true in
        timed a "store.put_ms" (fun () -> Store.put store ~key payload);
        add a "store.bytes_written" (float_of_int (String.length payload + Store.payload_offset)))
      certs

(* Set-up: cold-build every Δ into a fresh store (the writes). *)
let warm_setup cfg ~layers ~n () =
  let fresh name =
    let dir = Filename.concat cfg.work_dir (Printf.sprintf "thm1-%s-%d" name n) in
    rm_rf dir;
    (dir, Store.open_store ~dir ())
  in
  let dir, store = fresh "store" in
  let replay = Option.map (fun a -> (a, snd (fresh "replay"))) layers in
  let expected =
    List.map
      (fun delta ->
        let cache = CS.build_cache ~store ~check_views:true ~delta algo in
        Option.iter (fun (a, replay_store) -> replay_save a replay_store cache) replay;
        (delta, verdicts cache ~delta))
      (deltas cfg)
  in
  { dir; expected }

(* Replay of one Δ's reload: every record fetched, decoded and
   reassembled again, outside the op's clock. *)
let replay_load a store ~delta : check =
  let entries =
    List.init (delta - 1) (fun level ->
        let key = CS.key ~delta ~level ~algo:algo.name ~check_views:true in
        match timed a "store.get_ms" (fun () -> Store.get store ~key) with
        | None -> None
        | Some payload ->
          add a "store.bytes_read" (float_of_int (String.length payload + Store.payload_offset));
          Some (timed a "core.decode_ms" (fun () -> CS.entry_of_string payload)))
  in
  if List.mem None entries then fail "delta=%d: replay store miss" delta
  else
    let entries = List.filter_map Fun.id entries in
    let certs = List.map (fun e -> e.CS.entry_certificate) entries in
    let probes = List.concat_map (fun e -> e.CS.entry_probes) entries in
    let cache =
      timed a "core.assemble_ms" (fun () ->
          LB.assemble_cache ~delta ~algo_name:algo.name ~check_views:true ~probes
            ~outcome:(LB.Certified certs))
    in
    check_cache cache ~delta ~frontier:(frontier cache ~delta)

(* One warm restart: reopen the store, reload every Δ (the reads) and
   scan its frontier. *)
let warm_op w ~layers () =
  let store, t_open = time_ms (fun () -> Store.open_store ~dir:w.dir ()) in
  Option.iter (fun a -> add a "store.open_ms" t_open) layers;
  List.fold_left
    (fun (ms, res) (delta, expected) ->
      match
        time_ms (fun () -> CS.load_cache store ~check_views:true ~delta ~algo_name:algo.name)
      with
      | exception Store.Store_corrupt msg ->
        (ms, res &&& fun () -> fail "delta=%d: store corrupt: %s" delta msg)
      | exception Failure msg -> (ms, res &&& fun () -> fail "delta=%d: %s" delta msg)
      | None, t -> (ms +. t, res &&& fun () -> fail "delta=%d: store miss" delta)
      | Some cache, t_load ->
        let fr, t_front = time_ms (fun () -> frontier cache ~delta) in
        let res =
          res &&& fun () ->
          check_cache cache ~delta ~frontier:fr &&& fun () ->
          if Array.for_all2 Bool.equal (verdicts cache ~delta) expected then Ok ()
          else fail "delta=%d: warm verdicts differ from cold" delta
        in
        let res =
          match layers with
          | None -> res
          | Some a ->
            add a "core.frontier_ms" t_front;
            res &&& fun () ->
            match replay_load a store ~delta with
            | r -> r
            | exception Store.Store_corrupt msg -> fail "delta=%d: replay: %s" delta msg
        in
        (ms +. t_load +. t_front, res))
    (t_open, Ok ()) w.expected

let warm_layer_names =
  [ "store.open_ms"; "store.get_ms"; "core.decode_ms"; "core.assemble_ms"; "core.frontier_ms" ]

(* Fault injection: flip the last byte of one stored record. *)
let corrupt_one_record w =
  let store = Store.open_store ~dir:w.dir () in
  match Store.entries store with
  | [] -> failwith "corrupt: empty store"
  | (digest, _, key) :: _ ->
    let path = Filename.concat (Filename.concat (Filename.concat w.dir "objects") (String.sub digest 0 2)) digest in
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let b = Bytes.create 1 in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        if Unix.read fd b 0 1 <> 1 then failwith "corrupt: short read";
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        if Unix.write fd b 0 1 <> 1 then failwith "corrupt: short write");
    Printf.printf "fault injected: flipped the last byte of the record for %S\n%!" key
