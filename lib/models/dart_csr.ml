type t = { row : int array; key : int array; other : int array }

let n t = Array.length t.row - 1
