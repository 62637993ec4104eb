(** Packed Israeli–Itai-style randomized maximal matching — the
    mega-scale bench workload. It is {!Davies_peck} under the
    class-free schedule [{delta = 0; iters_per_class = 1}]: with no
    degree classes every node may propose in every iteration. Coins
    come from the one-word {!Ld_runtime.Packed.Coin} stream, so
    [Ld_check.propose_respond_run] on that schedule is an exact boxed
    twin. Degrees must be <= 62. *)

type result = Davies_peck.result = {
  mate : int array;  (** matched far endpoint, or -1 if unmatched *)
  rounds : int;
}

(** @raise Failure if some node has not halted after [max_rounds]
    rounds, or if the matching comes out asymmetric (a protocol bug,
    checked on extraction). *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  seed:int ->
  max_rounds:int ->
  Ld_graph.Csr.t ->
  result * Ld_runtime.Packed.stats

(** Sanity check: the mate array is a symmetric matching with no edge
    joining two unmatched nodes. *)
val is_maximal : Ld_graph.Csr.t -> result -> bool
