(* Deterministic contiguous partitioning of [0, len) — the unit of
   parallel work every executor hands to [Pool.map]. Shared by the
   boxed active-set engine (Anon) and the packed engine (Packed);
   keeping one implementation is what makes "byte-identical at any
   LD_DOMAINS" a single proof obligation instead of two. *)

(* Split [0, len) into at most [k] contiguous ranges of near-equal
   size, in order. *)
let ranges len k =
  let k = Stdlib.max 1 (Stdlib.min k len) in
  let base = len / k and extra = len mod k in
  List.init k (fun i ->
      let lo = (i * base) + Stdlib.min i extra in
      (lo, lo + base + if i < extra then 1 else 0))
