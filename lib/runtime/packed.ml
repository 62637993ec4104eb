module Csr = Ld_graph.Csr
module Obs = Ld_obs.Obs
module Pool = Ld_pool.Pool

(* Packed-state executor: per-node state is [state_words] consecutive
   ints in one flat array, messages are [msg_words] ints in another,
   halting flags live in a Bytes blob — no boxed records, no lists, no
   per-round allocation. This is what lets a round over 10^6 nodes
   stay bandwidth-bound instead of GC-bound. Machines address their
   own slices ([node * state_words] ...) and read peers' message
   slices directly from the CSR arrays.

   The execution discipline is the same two-phase active-set design as
   [Sync], and deliberately so, because [Sync] runs the boxed
   differential oracles: phase 1 (recv) reads only the
   frozen-or-refreshed [out] array and writes only the node's own
   state slice; phase 2 (send/refresh) writes only the node's own
   [out] slice and its frozen byte. Ranges from [Chunk.ranges] touch
   disjoint slices, so fan-out over [Pool.map] is race-free and the
   result is byte-identical at any [LD_DOMAINS]. A node that halts has
   its final messages written in the same phase, after which the slots
   are never touched again — the frozen-sender cache semantics of
   [Sync]. *)

let c_rounds = Obs.Counter.make "runtime.packed.rounds"
let c_sends = Obs.Counter.make "runtime.packed.sends"
let c_darts = Obs.Counter.make "runtime.packed.darts_scanned"
let c_active = Obs.Counter.make "runtime.packed.active_nodes"

(* Per-round latency histogram: the bench resets it around each
   measured run and reads p50/p99 off the merge. *)
let h_round = Ld_obs.Hist.make "runtime.packed.round"

type stats = { rounds : int; sends : int; darts_scanned : int }

let default_par_threshold = 4096

module Port = struct
  type machine = {
    state_words : int;
    msg_words : int;
    init : g:Csr.t -> st:int array -> node:int -> unit;
    send : g:Csr.t -> st:int array -> out:int array -> node:int -> unit;
    recv :
      g:Csr.t -> back:int array -> st:int array -> out:int array ->
      node:int -> unit;
    halted : st:int array -> node:int -> bool;
  }

  let run_until ?(par_threshold = default_par_threshold) ?domains m
      ~max_rounds (g : Csr.t) =
    if max_rounds < 0 then invalid_arg "Packed.Port.run_until";
    let domains =
      match domains with
      | Some d -> Stdlib.max 1 d
      | None -> Pool.default_domains ()
    in
    Obs.with_span "runtime.packed.port" @@ fun () ->
    let n = g.Csr.n in
    let row = g.Csr.row in
    let nd = row.(n) in
    let back = Csr.back g in
    let sw = m.state_words and mw = m.msg_words in
    let st = Array.make (Stdlib.max 1 (n * sw)) 0 in
    (* Per-dart message slots: the message node [v] sends on port [p]
       lives at [(row.(v) + p) * msg_words]. The far end reads it back
       through [back] — the packed analogue of [Sync]'s dart-indexed
       frozen cache, except every sender's current messages live there
       too. *)
    let out = Array.make (Stdlib.max 1 (nd * mw)) 0 in
    let frozen = Bytes.make (Stdlib.max 1 n) '\000' in
    let active = Array.make (Stdlib.max 1 n) 0 in
    let init_range lo hi =
      for v = lo to hi - 1 do
        m.init ~g ~st ~node:v;
        m.send ~g ~st ~out ~node:v
      done
    in
    if domains > 1 && n >= par_threshold then
      ignore
        (Pool.map ~domains
           (fun (lo, hi) -> init_range lo hi)
           (Chunk.ranges n domains)
          : unit list)
    else init_range 0 n;
    let n_active = ref 0 in
    let deg_sum = ref 0 in
    for v = 0 to n - 1 do
      if m.halted ~st ~node:v then Bytes.set frozen v '\001'
      else begin
        active.(!n_active) <- v;
        incr n_active;
        deg_sum := !deg_sum + row.(v + 1) - row.(v)
      end
    done;
    let recv_active lo hi =
      for k = lo to hi - 1 do
        m.recv ~g ~back ~st ~out ~node:active.(k)
      done
    in
    let refresh_active lo hi =
      for k = lo to hi - 1 do
        let v = active.(k) in
        m.send ~g ~st ~out ~node:v;
        if m.halted ~st ~node:v then Bytes.set frozen v '\001'
      done
    in
    let rounds = ref 0 in
    let sends = ref nd in
    let darts = ref 0 in
    let total_active = ref 0 in
    while !n_active > 0 && !rounds < max_rounds do
      Ld_obs.Hist.timed h_round (fun () ->
          let mact = !n_active in
          total_active := !total_active + mact;
          darts := !darts + !deg_sum;
          if domains > 1 && mact >= par_threshold then begin
            let ranges = Chunk.ranges mact domains in
            ignore (Pool.map ~domains (fun (lo, hi) -> recv_active lo hi) ranges
                     : unit list);
            ignore
              (Pool.map ~domains (fun (lo, hi) -> refresh_active lo hi) ranges
                : unit list)
          end
          else begin
            recv_active 0 mact;
            refresh_active 0 mact
          end;
          sends := !sends + !deg_sum;
          let w = ref 0 in
          deg_sum := 0;
          for k = 0 to mact - 1 do
            let v = active.(k) in
            if Bytes.get frozen v = '\000' then begin
              active.(!w) <- v;
              incr w;
              deg_sum := !deg_sum + row.(v + 1) - row.(v)
            end
          done;
          n_active := !w);
      incr rounds
    done;
    Obs.Counter.add c_rounds !rounds;
    Obs.Counter.add c_sends !sends;
    Obs.Counter.add c_darts !darts;
    Obs.Counter.add c_active !total_active;
    let stats =
      { rounds = !rounds; sends = !sends; darts_scanned = !darts }
    in
    if !n_active > 0 then (st, stats, false) else (st, stats, true)
end

(* Deterministic per-node coin stream for packed randomized machines:
   [Random.State] cannot live in an int slice, so packed machines draw
   from a splitmix-style hash whose one-word state is part of the
   node's slice. The boxed differential twin draws from the *same*
   stream (it stores the same word), which is what makes
   packed-vs-boxed comparison exact rather than distributional. *)
module Coin = struct
  let mask = (1 lsl 62) - 1

  (* splitmix64-flavoured mixer on 62-bit words (the constants are the
     splitmix64 ones truncated to fit OCaml's boxed-free int range —
     we only need a well-scrambled deterministic stream, not the
     reference output). *)
  let mix z =
    let z = (z + 0x1E3779B97F4A7C15) land mask in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land mask in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land mask in
    (z lxor (z lsr 31)) land mask

  let seed ~seed ~node = mix (mix (seed land mask) + node)

  (* Advance the stream: returns the next state; extract bits from the
     returned word with [bool]/[int]. *)
  let next s = mix (s + 1)
  let bool s = s land 1 = 1

  let int s bound =
    if bound <= 0 then invalid_arg "Packed.Coin.int";
    (s lsr 1) mod bound
end
