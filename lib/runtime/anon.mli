(** Synchronous execution of anonymous algorithms on EC and PO
    multigraphs.

    A machine is a deterministic synchronous state machine: at every
    round each node broadcasts one message (the same on every incident
    dart — WLOG, because the receiver already knows the name of the dart
    a message arrives on and can project whatever dart-dependent content
    it needs out of it), then consumes the messages arriving on its
    darts and steps its state.

    The two models differ only in how a node names its darts
    ({!Ld_models.Dart_csr}): by edge colour in EC, by (direction,
    colour) — packed into one {!Ld_models.Po.key} — in PO, where every
    arc is a bidirectional link whose orientation is symmetry-breaking
    information only. One engine runs both; the model picks only the
    counter set ([runtime.ec.*] or [runtime.po.*]).

    {b Loop reflection.} On a loop dart the node receives the very
    message it sent. This makes execution on a multigraph [G] agree
    exactly, fiber by fiber, with execution on any lift of [G]: all
    members of a fiber carry identical states by induction on rounds,
    so the neighbour across a lifted loop edge sends precisely what the
    node itself sent (a PO directed loop unfolds into a directed cycle
    through the fiber, so the message sent on its out-dart arrives on
    the node's own in-dart and vice versa). Consequently every machine
    run through this module satisfies the lift-invariance condition (2)
    of the paper by construction — this is how we "run algorithms on
    factor graphs" without materialising infinite universal covers.

    {b Scheduling.} The executor is an {e active-set} engine: each
    node's broadcast is computed once per round into a flat buffer
    (send-once caching; a halted node's message is computed once at halt
    time and reused forever), rounds walk a worklist of non-halted nodes
    (halted-frontier scheduling), and inboxes are lazy views over the
    dart CSR — a [recv] that reads one dart costs one read, not degree
    allocations. Above [par_threshold] active nodes each round fans out
    across domains in contiguous node ranges with a deterministic
    submission-order merge, so results are byte-identical to the
    sequential run. The dense per-round full-scan executor it is
    differentially tested against lives in [Ld_check]. *)

type graph = Ec of Ld_models.Ec.t | Po of Ld_models.Po.t

val dart_csr : graph -> Ld_models.Dart_csr.t

(** One round's incoming messages at a node: a zero-allocation view over
    the dart CSR and the executor's send buffer. Entries are indexed
    [0 .. degree-1] in ascending key order and are only materialised
    when read — reads are tallied into the [runtime.*.darts_scanned]
    counter. The view is only valid inside the [recv] call it is passed
    to; do not store it. *)
module Inbox : sig
  type 'msg t

  val degree : 'msg t -> int

  (** Key of the [i]-th dart (ascending in [i]). Does not count as a
      dart read. *)
  val key : 'msg t -> int -> int

  (** Message arriving on the [i]-th dart. *)
  val msg : 'msg t -> int -> 'msg

  (** Message arriving on the dart with the given key, if any — a binary
      search over the node's key-sorted dart segment. *)
  val find : 'msg t -> key:int -> 'msg option

  val fold : ('a -> key:int -> 'msg -> 'a) -> 'a -> 'msg t -> 'a

  (** The whole inbox as an assoc list in key order; allocates,
      intended for tests/debugging. *)
  val to_list : 'msg t -> (int * 'msg) list

  (** [make darts out] is an inbox over the broadcasts [out] (one per
      node) and [at ib v] points it at node [v] — for executors outside
      this module, such as the dense reference checker. *)
  val make : Ld_models.Dart_csr.t -> 'msg array -> 'msg t

  val at : 'msg t -> int -> unit
end

type ('state, 'msg) machine = {
  init : keys:int list -> 'state;
      (** Initial state; [keys] are the node's dart keys, ascending. *)
  send : 'state -> 'msg;
      (** The node's broadcast message for the coming round. Must be a
          pure function of the state: the executor calls it once per
          round per active node (and once, ever, per halted state). *)
  recv : 'state -> 'msg Inbox.t -> 'state;
      (** Consume one round's inbox. *)
  halted : 'state -> bool;
      (** Once true, the node's state is frozen (its broadcast continues
          to be delivered, computed once from the frozen state). *)
}

(** Active-node count above which a round is fanned out across domains
    (when the effective domain count exceeds 1). *)
val default_par_threshold : int

(** [run machine ~rounds g] executes exactly [rounds] rounds (halted
    nodes frozen; rounds in which every node has halted are skipped — a
    no-op by the frozen-state contract) and returns the final states.

    @param par_threshold see {!default_par_threshold}.
    @param domains domain budget for parallel rounds; defaults to
      [Ld_pool.Pool.default_domains ()]. *)
val run :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) machine ->
  rounds:int ->
  graph ->
  's array

(** [run_until machine ~max_rounds g] stops as soon as every node has
    halted (or after [max_rounds]); returns final states and the number
    of rounds executed. Parameters as in {!run}. *)
val run_until :
  ?par_threshold:int ->
  ?domains:int ->
  ('s, 'm) machine ->
  max_rounds:int ->
  graph ->
  's array * int
