(** The local simulations EC ⇐ PO ⇐ OI of Section 5.

    Each transformer turns an algorithm for a stronger model into one
    for a weaker model, preserving the run-time up to a constant factor.
    Chained with the Section 4 adversary (which lives in the weakest
    model, EC), they lift the Ω(Δ) lower bound up the model hierarchy:
    a fast algorithm in PO or OI would yield a fast EC algorithm, which
    {!Lower_bound} refutes.

    {b EC ⇐ PO (§5.1, Fig. 8).} Interpret every EC edge of colour [c] as
    two opposite arcs of colour [c] (and every EC loop as a directed
    loop); run the PO algorithm; return to each EC edge the sum of its
    two arc weights (an EC loop gets twice its directed loop's weight —
    the loop's lifted edge carries one arc in each direction).

    {b PO ⇐ OI (§5.3, Fig. 9).} A [t]-time OI algorithm is a function of
    the ordered view [(τ_t(UG, v), ≼)]. The PO simulation materialises
    the view tree, embeds it in the infinite [2d]-regular tree [T] by
    reading each node's step word as an address, and inherits the
    canonical homogeneous order of Lemma 4 ([Ld_order.Tree_order]); by
    homogeneity the resulting ordered structure is independent of the
    embedding, so the rule's answer is well-defined and automatically
    lift-invariant. *)

module Po = Ld_models.Po
module Q = Ld_arith.Q

(** {1 EC ⇐ PO} *)

(** [ec_of_po a] is the §5.1 simulation; same number of rounds. The
    result is {!Ld_matching.Packing.opaque}: the adversary runs it on
    every 2-lift and checks the output against the pull-back. *)
val ec_of_po : Ld_matching.Po_packing.algorithm -> Ld_matching.Packing.algorithm

(** {1 PO ⇐ OI} *)

type ordered_view = {
  ov_graph : Po.t;  (** the view tree materialised as a PO graph *)
  ov_root : int;  (** always 0 *)
  ov_rank : int array;  (** canonical order: rank of each tree node *)
}

(** [ordered_view g v ~radius] is [(τ_radius(UG, v), ≼)]. *)
val ordered_view : Po.t -> int -> radius:int -> ordered_view

(** An OI local rule: the radius of the view it needs, and the local
    output — a weight for each edge at the root, keyed by the depth-1
    tree node across it. The rule {b must} be order-invariant: its
    answer may depend only on the {e underlying graph} of the view and
    the canonical ranks (the PO decorations carried by [ov_graph] are
    harness bookkeeping, off-limits to a genuine OI rule). It is
    queried once per node of the input PO graph. *)
type oi_rule = {
  oi_name : string;
  oi_radius : int;
  oi_apply : ordered_view -> (int * Q.t) list;
}

(** [po_of_oi rule] is the §5.3 simulation. The assembled weights are
    cross-checked: the two endpoints of every arc must announce the
    same weight, otherwise the rule was not a consistent local
    algorithm.
    @raise Failure on an endpoint disagreement. *)
val po_of_oi : oi_rule -> Ld_matching.Po_packing.algorithm

(** [proposal_rule ~rounds] packages [rounds] iterations of the
    proposal dynamics — run centrally on the underlying graph of the
    view — as an (order-oblivious) OI rule with view radius
    [rounds + 1]. Simulating it through {!po_of_oi} reproduces
    [Po_packing.proposal ~truncate:rounds] {e exactly} — the end-to-end
    validation that view unfolding, embedding and read-back are
    faithful. *)
val proposal_rule : rounds:int -> oi_rule

(** A radius-2 OI rule defined {e purely} in terms of the ordered
    structure: for an edge [{a, b}] with [a ≺ b], the weight is
    [1/(deg a + deg b)], halved when an odd number of [a]'s other
    neighbours precede [b] in the canonical order. Always a feasible
    FM; consistent between endpoints precisely because both views rank
    the shared nodes identically — the homogeneity of Lemma 4 at work. *)
val rank_weighted_rule : oi_rule
