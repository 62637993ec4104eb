(** The dart-keyed CSR view shared by every model.

    A node names each of its darts by one [int] key: the edge colour in
    the EC model ({!Ec.dart_csr}), the (direction, colour) pair packed by
    {!Po.key} in the PO model ({!Po.dart_csr}). Dart [d] of node [v]
    occupies indices [row.(v) .. row.(v+1) - 1] with keys strictly
    ascending within the segment; [other.(d)] is the node at the far end
    ([v] itself for a loop dart — loop reflection built in). The
    executor ({!Ld_runtime.Anon}), the view arena and refinement
    ({!Ld_cover}) all read this one record; it is built once when the
    graph is constructed and must be treated as read-only. *)

type t = { row : int array; key : int array; other : int array }

(** Number of nodes ([Array.length row - 1]). *)
val n : t -> int
