type 'r t =
  | Done of 'r
  | Step : 'a Op.req * ('a -> 'r t) -> 'r t

let return r = Done r

let rec bind m f =
  match m with
  | Done x -> f x
  | Step (req, k) -> Step (req, fun a -> bind (k a) f)

let ( let* ) = bind
let perform req = Step (req, return)
