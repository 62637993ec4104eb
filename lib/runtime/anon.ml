module Ec = Ld_models.Ec
module Po = Ld_models.Po
module Darts = Ld_models.Dart_csr
module Obs = Ld_obs.Obs
module Pool = Ld_pool.Pool

type graph = Ec of Ec.t | Po of Po.t

(* Per-run traffic, one counter set per model. [darts_scanned] counts
   inbox reads actually performed by machines (the lazy inbox only pays
   for what [recv] touches); [send_cache_hits] counts reads served from a
   halted sender's frozen broadcast; [active_nodes] sums the worklist
   size over rounds, so active_nodes/rounds is the mean frontier. *)
type meters = {
  span : string;
  c_rounds : Obs.Counter.t;
  c_darts : Obs.Counter.t;
  c_reflected : Obs.Counter.t;
  c_sends : Obs.Counter.t;
  c_cache_hits : Obs.Counter.t;
  c_active : Obs.Counter.t;
  h_round : Ld_obs.Hist.t;
}

let meters model =
  let name what = Printf.sprintf "runtime.%s.%s" model what in
  {
    span = name "run";
    c_rounds = Obs.Counter.make (name "rounds");
    c_darts = Obs.Counter.make (name "darts_scanned");
    c_reflected = Obs.Counter.make (name "loop_reflected");
    c_sends = Obs.Counter.make (name "sends");
    c_cache_hits = Obs.Counter.make (name "send_cache_hits");
    c_active = Obs.Counter.make (name "active_nodes");
    h_round = Ld_obs.Hist.make (name "round");
  }

let ec_meters = meters "ec"
let po_meters = meters "po"

let dart_csr = function Ec g -> Ec.dart_csr g | Po g -> Po.dart_csr g

module Inbox = struct
  (* A cursor over one node's dart segment [lo, hi) of the dart CSR.
     [out.(u)] is node [u]'s current broadcast; [frozen.(u)] means that
     broadcast was cached at halt time. Tallies accumulate across
     rounds and are flushed to the counters once per run. *)
  type 'msg t = {
    row : int array;
    keys : int array;
    others : int array;
    out : 'msg array;
    frozen : bool array;
    mutable node : int;
    mutable lo : int;
    mutable hi : int;
    mutable darts : int;
    mutable reflected : int;
    mutable hits : int;
  }

  let with_frozen (dc : Darts.t) out frozen =
    {
      row = dc.row;
      keys = dc.key;
      others = dc.other;
      out;
      frozen;
      node = 0;
      lo = 0;
      hi = 0;
      darts = 0;
      reflected = 0;
      hits = 0;
    }

  let make dc out = with_frozen dc out (Array.make (Darts.n dc) false)

  let at ib v =
    ib.node <- v;
    ib.lo <- ib.row.(v);
    ib.hi <- ib.row.(v + 1)

  let degree ib = ib.hi - ib.lo
  let key ib i = ib.keys.(ib.lo + i)

  let read ib d =
    let u = ib.others.(d) in
    ib.darts <- ib.darts + 1;
    if u = ib.node then ib.reflected <- ib.reflected + 1
    else if ib.frozen.(u) then ib.hits <- ib.hits + 1;
    ib.out.(u)

  let msg ib i = read ib (ib.lo + i)

  let find ib ~key =
    let rec go lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let k = ib.keys.(mid) in
        if k = key then Some (read ib mid)
        else if k < key then go (mid + 1) hi
        else go lo mid
      end
    in
    go ib.lo ib.hi

  let fold f acc ib =
    let r = ref acc in
    for d = ib.lo to ib.hi - 1 do
      r := f !r ~key:ib.keys.(d) (read ib d)
    done;
    !r

  let to_list ib = List.rev (fold (fun acc ~key m -> (key, m) :: acc) [] ib)
end

type ('state, 'msg) machine = {
  init : keys:int list -> 'state;
  send : 'state -> 'msg;
  recv : 'state -> 'msg Inbox.t -> 'state;
  halted : 'state -> bool;
}

let exec_active machine ~limit ~par_threshold ~domains ~meters
    (dc : Darts.t) =
  let n = Darts.n dc in
  let row = dc.row in
  let states =
    Array.init n (fun v ->
        let lo = row.(v) in
        machine.init ~keys:(List.init (row.(v + 1) - lo) (fun i -> dc.key.(lo + i))))
  in
  if n = 0 then (states, 0)
  else begin
    let frozen = Array.make n false in
    (* Broadcasts, computed once per (node, round); a halted node's slot
       is written one last time when it freezes and then reused. *)
    let out = Array.make n (machine.send states.(0)) in
    for v = 1 to n - 1 do
      out.(v) <- machine.send states.(v)
    done;
    let sends = ref n in
    let active = Array.make n 0 in
    let n_active = ref 0 in
    for v = 0 to n - 1 do
      if machine.halted states.(v) then frozen.(v) <- true
      else begin
        active.(!n_active) <- v;
        incr n_active
      end
    done;
    let mk_inbox () = Inbox.with_frozen dc out frozen in
    let seq_ib = mk_inbox () in
    let darts = ref 0 and reflected = ref 0 and hits = ref 0 in
    let drain (ib : _ Inbox.t) =
      darts := !darts + ib.Inbox.darts;
      reflected := !reflected + ib.Inbox.reflected;
      hits := !hits + ib.Inbox.hits
    in
    (* Phase 1 of a round: every active node consumes its inbox. Reads
       only [out]/[frozen] (stable during the phase) and writes its own
       state slot, so ranges are race-free. *)
    let recv_range ib lo hi =
      for k = lo to hi - 1 do
        let v = active.(k) in
        Inbox.at ib v;
        states.(v) <- machine.recv states.(v) ib
      done
    in
    (* Phase 2: refresh broadcasts from the post-recv states and mark
       freshly-halted nodes. Writes only [out]/[frozen] slots of its own
       range. *)
    let refresh_range lo hi =
      for k = lo to hi - 1 do
        let v = active.(k) in
        out.(v) <- machine.send states.(v);
        if machine.halted states.(v) then frozen.(v) <- true
      done
    in
    let rounds = ref 0 in
    let total_active = ref 0 in
    while !n_active > 0 && !rounds < limit do
      Ld_obs.Hist.timed meters.h_round (fun () ->
          let m = !n_active in
          total_active := !total_active + m;
          if domains > 1 && m >= par_threshold then begin
            let ranges = Chunk.ranges m domains in
            Pool.map ~domains
              (fun (lo, hi) ->
                let ib = mk_inbox () in
                recv_range ib lo hi;
                ib)
              ranges
            |> List.iter drain;
            ignore
              (Pool.map ~domains (fun (lo, hi) -> refresh_range lo hi) ranges
                : unit list)
          end
          else begin
            recv_range seq_ib 0 m;
            refresh_range 0 m
          end;
          sends := !sends + m;
          (* Compact the worklist in place, preserving node order. *)
          let w = ref 0 in
          for k = 0 to m - 1 do
            let v = active.(k) in
            if not frozen.(v) then begin
              active.(!w) <- v;
              incr w
            end
          done;
          n_active := !w);
      incr rounds
    done;
    drain seq_ib;
    Obs.Counter.add meters.c_rounds !rounds;
    Obs.Counter.add meters.c_darts !darts;
    Obs.Counter.add meters.c_reflected !reflected;
    Obs.Counter.add meters.c_sends !sends;
    Obs.Counter.add meters.c_cache_hits !hits;
    Obs.Counter.add meters.c_active !total_active;
    (states, !rounds)
  end

let default_par_threshold = 4096

let exec ~par_threshold ~domains machine ~limit g =
  let domains =
    match domains with
    | Some d -> Stdlib.max 1 d
    | None -> Pool.default_domains ()
  in
  let meters = match g with Ec _ -> ec_meters | Po _ -> po_meters in
  Obs.with_span meters.span (fun () ->
      exec_active machine ~limit ~par_threshold ~domains ~meters (dart_csr g))

let run ?(par_threshold = default_par_threshold) ?domains machine ~rounds g =
  if rounds < 0 then invalid_arg "Anon.run: negative rounds";
  fst (exec ~par_threshold ~domains machine ~limit:rounds g)

let run_until ?(par_threshold = default_par_threshold) ?domains machine
    ~max_rounds g =
  exec ~par_threshold ~domains machine ~limit:max_rounds g
