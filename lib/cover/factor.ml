module Ec = Ld_models.Ec

let factor g =
  let cls = Refinement.stable_partition (Ec.dart_csr g) in
  let num_classes =
    Array.fold_left (fun acc c -> Stdlib.max acc (c + 1)) 0 cls
  in
  (* One representative per class; stability guarantees that every class
     member has the same (colour, target class) dart signature. *)
  let repr = Array.make num_classes (-1) in
  Array.iteri (fun v c -> if repr.(c) < 0 then repr.(c) <- v) cls;
  let edges = ref [] and loops = ref [] in
  for c = 0 to num_classes - 1 do
    let v = repr.(c) in
    List.iter
      (fun dart ->
        match dart with
        | Ec.Into_loop { colour; _ } -> loops := (c, colour) :: !loops
        | Ec.To_neighbour { neighbour; colour; _ } ->
          let c' = cls.(neighbour) in
          if c' = c then loops := (c, colour) :: !loops
          else if c < c' then edges := (c, c', colour) :: !edges)
      (Ec.darts g v)
  done;
  let fg = Ec.create ~n:num_classes ~edges:!edges ~loops:!loops in
  (fg, cls)

let is_own_factor g =
  let cls = Refinement.stable_partition (Ec.dart_csr g) in
  List.length (List.sort_uniq Int.compare (Array.to_list cls)) = Ec.n g
