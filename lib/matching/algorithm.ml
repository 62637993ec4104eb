type kind = Executor_backed | Opaque

type t = { name : string; run : Ld_models.Ec.t -> Ld_fm.Fm.t; kind : kind }

let executor_backed ~name run = { name; run; kind = Executor_backed }
