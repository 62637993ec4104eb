(** Davies–Peck-style degree-class decomposition schedule over
    Israeli–Itai propose/respond dynamics: phase [j] lets only nodes
    of live degree in (Δ/2^{j+1}, Δ/2^j] propose, then an
    unrestricted cleanup runs to maximality. Matched endpoints form a
    2-approximate vertex cover. With [delta = 0] there are no classes
    and the schedule is plain Israeli–Itai ({!Packed_ii}).

    This module owns the one propose/respond transition. {!run} drives
    it on the packed {!Ld_runtime.Packed.Port} executor;
    [Ld_check.propose_respond_run] drives it on the boxed [Sync]
    engine. Both draw from the same {!Ld_runtime.Packed.Coin} stream,
    so the comparison is exact (mates and rounds) at any
    [LD_DOMAINS]. Degrees must be <= 62. *)

type schedule = {
  delta : int;  (** max degree the class boundaries are derived from *)
  iters_per_class : int;  (** propose/respond iterations per class *)
}

(** @raise Invalid_argument unless [delta >= 0] and
    [iters_per_class >= 1]. *)
val check_schedule : schedule -> unit

type result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
}

(** {1 The propose/respond transition}

    One node's state is [state_words] ints; the functions below read
    and write it in place. Ports are [0 .. degree-1]. *)

val state_words : int

(** Fills a fresh state for [node] (its coin stream is seeded from
    [(seed, node)]) and draws its first proposal.
    @raise Invalid_argument if [degree > 62]. *)
val init : schedule -> seed:int -> node:int -> degree:int -> int array -> unit

(** The one-word message the node sends on [port]. *)
val message : int array -> port:int -> int

(** One round: [msg p] is the message that arrived on port [p]. *)
val step : schedule -> degree:int -> msg:(int -> int) -> int array -> unit

(** Matched, or out of live ports at the start of an iteration. *)
val halted : int array -> bool

(** The matched port, or -1. *)
val matched_port : int array -> int

(** {1 Packed run} *)

(** [run ?sched ~seed ~max_rounds g] — [sched] defaults to
    [{delta = max 1 (max_degree g); iters_per_class = 2}].
    @raise Invalid_argument if [sched] fails {!check_schedule}.
    @raise Failure if some node has not halted after [max_rounds]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ?sched:schedule ->
  seed:int ->
  max_rounds:int ->
  Ld_graph.Csr.t ->
  result * Ld_runtime.Packed.stats

(** Every edge has a matched endpoint, so the matched nodes form a
    vertex cover (true once the cleanup ran to maximality). *)
val is_vertex_cover : Ld_graph.Csr.t -> result -> bool
