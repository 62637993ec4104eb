(** The lower-bound engine's record of an EC algorithm, shared by
    {!Packing} and {!Mm_ec}. The module is private to the library:
    outside it, {!Packing.algorithm} is a private type whose only
    constructor is {!Packing.opaque}, so no caller can declare an
    arbitrary closure executor-backed. *)

type kind = Executor_backed | Opaque

type t = { name : string; run : Ld_models.Ec.t -> Ld_fm.Fm.t; kind : kind }

(** [executor_backed ~name run] — [run] must be [Anon.run] of a
    machine followed by a per-dart decode, for a round count that is a
    lift-invariant function of the graph. *)
val executor_backed : name:string -> (Ld_models.Ec.t -> Ld_fm.Fm.t) -> t
