(** Distributed maximal edge packing (maximal fractional matching) in the
    EC model — the [O(Δ)] upper bound that Theorem 1 proves optimal
    (Åstrand–Suomela 2010 [3]; "greedy is optimal",
    Hirvonen–Suomela 2012 [13]).

    Two algorithms:

    {b Greedy by colour.} In phase [c = 1, 2, …, k] every edge of colour
    [c] takes the minimum residual slack of its endpoints. After phase
    [c] one endpoint of every colour-[c] edge is saturated (or was
    saturated before), so after [k = O(Δ)] single-round phases the
    packing is maximal. This is the canonical adversary target.

    {b Simultaneous proposal.} Every node splits its slack evenly among
    its live darts (darts whose endpoints are both unsaturated); each
    live edge grows by the minimum of its two offers. The node with the
    globally minimal offer saturates, so at most [n] iterations are
    needed; empirically the round count tracks [O(Δ)] on bounded-degree
    families — the benchmark compares both.

    Both run on arbitrary EC multigraphs through the loop-reflecting
    runner, hence both are lift-invariant by construction, as the EC
    model demands. *)

(** [greedy_by_colour ?truncate g] runs [min truncate k] phases, where
    [k] is the number of colours of [g] (one communication round per
    phase). Without [truncate], the result is always a maximal FM.
    The communication-round count is exactly [min truncate k]. *)
val greedy_by_colour : ?truncate:int -> Ld_models.Ec.t -> Ld_fm.Fm.t

(** Rounds the full greedy algorithm uses on [g] (= number of colours). *)
val greedy_rounds : Ld_models.Ec.t -> int

(** [proposal ?truncate g] iterates the offer dynamics until no live
    dart remains (or for [truncate] rounds); returns the packing and the
    number of rounds executed. Untruncated, the result is always a
    maximal FM after at most [n] rounds. *)
val proposal : ?truncate:int -> Ld_models.Ec.t -> Ld_fm.Fm.t * int

(** How the lower-bound engine obtains an algorithm's output on a
    2-lift of a graph it has already run on.

    - [Executor_backed]: [run] is {!Ld_runtime.Anon.run} of an
      anonymous machine followed by a per-dart decode, for a round
      count that is a lift-invariant function of the graph (such as
      [Ec.max_colour]). Every node of a lift sees exactly what its
      image sees in every round (the paper's §3.4 lift argument), so
      the output on a lift {e is} the pulled-back base output
      ({!Ld_fm.Fm.pull_back}) and the engine does not run it.
      {!greedy_algorithm}, {!proposal_algorithm}, both {!truncated}
      variants and [Mm_ec.as_packing_algorithm] are of this kind; no
      other value can be.
    - [Opaque]: any other closure. The engine runs it on every lift,
      checks feasibility, and rejects it unless the output equals the
      pull-back. *)
type kind = Algorithm.kind = Executor_backed | Opaque

(** A named algorithm, as consumed by the lower-bound engine: [run]
    must be deterministic and lift-invariant. The record is private:
    build opaque algorithms with {!opaque}. *)
type algorithm = Algorithm.t = private {
  name : string;
  run : Ld_models.Ec.t -> Ld_fm.Fm.t;
  kind : kind;
}

(** [opaque ~name run] wraps an arbitrary closure. The engine treats it
    as a black box: it is run on every probe graph, 2-lifts included. *)
val opaque : name:string -> (Ld_models.Ec.t -> Ld_fm.Fm.t) -> algorithm

val greedy_algorithm : algorithm

val proposal_algorithm : algorithm

(** [truncated base r] caps either algorithm at [r] communication
    rounds — a genuinely [r]-round algorithm, used to exhibit failure
    witnesses. *)
val truncated : [ `Greedy | `Proposal ] -> int -> algorithm
