(** Explicit universal-cover view trees, for both models.

    [of_ec g v ~radius:t] (resp. [of_po]) is the radius-[t] neighbourhood
    [τ_t(UG, v)] of the universal cover (paper §3.4), materialised as a
    rooted tree whose branches are indexed by dart key
    ({!Ld_models.Dart_csr}): the edge colour in EC, the packed
    (direction, colour) {!Ld_models.Po.key} in PO. Keys are distinct at
    every node, so structural equality of these trees {e is} isomorphism
    of the neighbourhoods.

    A loop dart unfolds into a fresh copy of its own node, exactly as in
    a simple lift (a PO directed loop becomes a directed cycle through
    the fiber). Views are hash-consed in one global arena shared across
    graphs, levels and deltas: isomorphic subtrees are one arena node,
    the unfold is memoised over (entry dart, depth) so the [Δ^t]-node
    tree costs only [O(n·Δ·t)] cons operations, and {!equal} is a
    single tag comparison. The arena lives for the whole process
    ([cover.view.cons_hits] meters the sharing); the scalable
    equivalence test is still {!Refinement}.

    The PO views are the [τ] of the PO ⇐ OI simulation (paper §5.3,
    Fig. 9): {!paths} exposes each tree node as its step word from the
    root, ready to be embedded into the infinite tree [T] and ordered by
    [Ld_order.Tree_order]. *)

type t = private { tag : int; branches : (int * t) list }
(** Branches sorted by key, keys distinct. A leaf has [branches = []].
    [tag] is the arena index: equal tags iff structurally equal trees.
    Tags depend on arena insertion order, so they identify but must
    never {e order} views. *)

val of_ec : Ld_models.Ec.t -> int -> radius:int -> t
val of_po : Ld_models.Po.t -> int -> radius:int -> t

(** Tag (pointer) equality — O(1) thanks to hash-consing. *)
val equal : t -> t -> bool

(** Structural key-lexicographic order (deterministic across runs;
    tags are not). *)
val compare : t -> t -> int

(** Number of nodes in the tree (root included). *)
val size : t -> int

val depth : t -> int

(** [branch v k] is the subtree reached along key [k], if present. *)
val branch : t -> int -> t option

(** {2 EC views} *)

(** Materialise the view tree as an EC graph (no loops); the root is
    node 0. Running any anonymous algorithm for [depth t] rounds on the
    materialised radius-[t+1] tree reproduces the root's behaviour on
    the original graph. *)
val to_ec : t -> Ld_models.Ec.t

val pp : Format.formatter -> t -> unit

(** {2 PO views}

    These walk a node's in-darts before its out-darts (each by colour).
    A step with [Po.key_is_out] follows an outgoing arc (the walker is
    at the tail). *)

(** All nodes of the tree as root-relative step words, in DFS order;
    the root is [[]]. *)
val paths : t -> Ld_models.Po.key list list

(** Materialise the view as a PO graph (no loops). Returns the graph and
    the node index of each path in {!paths} order; the root is node 0. *)
val to_po : t -> Ld_models.Po.t * (Ld_models.Po.key list * int) list

val pp_po : Format.formatter -> t -> unit
