(** The checker kernel: slow, obviously-correct twins of the production
    fast paths, written against the list views of the models rather
    than [Ld_cover]'s partition refinement.

    The qcheck differentials compare the production engines against
    these, and certificate verification ([Ld_core.Certificate_io.verify])
    re-checks views with them, so a certificate is never accepted on the
    word of the code that produced it. Nothing here is on a hot path. *)

(** {1 Dense executor} *)

(** The dense per-round full-scan twin of [Ld_runtime.Anon.run]: every
    broadcast is recomputed each round, every non-halted inbox is
    walked, halting is an [Array.for_all] scan. It must agree with the
    active-set engine state for state and round for round. Runs with no
    runtime counters. *)
val run :
  ('s, 'm) Ld_runtime.Anon.machine -> rounds:int -> Ld_runtime.Anon.graph -> 's array

(** As {!run}, stopping once every node has halted; returns the states
    and the number of rounds executed. *)
val run_until :
  ('s, 'm) Ld_runtime.Anon.machine ->
  max_rounds:int ->
  Ld_runtime.Anon.graph ->
  's array * int

(** {1 Boxed propose/respond twin} *)

(** The boxed twin of [Ld_matching.Davies_peck.run] (and, under the
    class-free schedule [{delta = 0; iters_per_class = 1}], of
    [Ld_matching.Packed_ii.run]): the same transition driven node by
    node on the [Sync] engine over [Id.trivial] ids, one boxed state
    array per node, drawing from the same coin stream. Mates and rounds
    must equal the packed run's at any [LD_DOMAINS].
    @raise Invalid_argument if [sched] fails
    [Ld_matching.Davies_peck.check_schedule].
    @raise Failure if some node has not halted after [max_rounds]. *)
val propose_respond_run :
  sched:Ld_matching.Davies_peck.schedule ->
  seed:int ->
  max_rounds:int ->
  Ld_graph.Graph.t ->
  Ld_matching.Davies_peck.result

(** {1 List-based colour refinement} *)

(** [refine_ec g ~rounds] re-labels every node, each round, by its
    previous label and the sorted list of (dart colour, previous label of
    the dart's far end) read off [Ec.darts], interning descriptors per
    round by first occurrence in node order. Labels are identical to
    [Ld_cover.Refinement.refine] on [Ec.dart_csr g]. Every sort is
    tallied into [cover.refine.descriptors_sorted], which therefore stays
    0 in a run that never calls the checker. *)
val refine_ec : Ld_models.Ec.t -> rounds:int -> int array array

(** As {!refine_ec} on [Po.darts], keyed by direction and colour. *)
val refine_po : Ld_models.Po.t -> rounds:int -> int array array

(** [equivalent_radius g u h v ~radius] decides
    [τ_radius(UG, u) ≅ τ_radius(UH, v)] by {!refine_ec} on the disjoint
    union [Ec.disjoint_union g h]. *)
val equivalent_radius :
  Ld_models.Ec.t -> int -> Ld_models.Ec.t -> int -> radius:int -> bool

(** {1 Structure} *)

(** P3 of the construction: ignoring loops, the graph is a tree (checked
    through [Ld_graph.Graph]: parallel edges are rejected, then
    [m = n - 1] and connectivity). *)
val is_tree_plus_loops : Ld_models.Ec.t -> bool
