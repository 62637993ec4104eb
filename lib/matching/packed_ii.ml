type result = Davies_peck.result = { mate : int array; rounds : int }

let class_free = { Davies_peck.delta = 0; iters_per_class = 1 }

let run ?par_threshold ?domains ~seed ~max_rounds g =
  Davies_peck.run ?par_threshold ?domains ~sched:class_free ~seed ~max_rounds g

let is_maximal g r =
  let symmetric = ref true in
  Array.iteri (fun v w -> if w >= 0 && r.mate.(w) <> v then symmetric := false) r.mate;
  !symmetric && Davies_peck.is_vertex_cover g r
