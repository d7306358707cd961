type policy = { base_ms : float; multiplier : float; max_ms : float }

let default = { base_ms = 50.; multiplier = 2.; max_ms = 2_000. }

let make ?(base_ms = 50.) ?(multiplier = 2.) ?(max_ms = 2_000.) () =
  if base_ms < 0. then
    Fact_error.precondition ~fn:"Backoff.make" "base_ms must be >= 0";
  if multiplier < 1. then
    Fact_error.precondition ~fn:"Backoff.make" "multiplier must be >= 1";
  if max_ms < base_ms then
    Fact_error.precondition ~fn:"Backoff.make" "max_ms must be >= base_ms";
  { base_ms; multiplier; max_ms }

let delay_ms p ~attempt =
  let attempt = max 0 attempt in
  let rec go d k =
    if k <= 0 || d >= p.max_ms then d else go (d *. p.multiplier) (k - 1)
  in
  Float.min p.max_ms (go p.base_ms attempt)

let schedule p ~attempts =
  List.init (max 0 attempts) (fun attempt -> delay_ms p ~attempt)

let sleep p ~attempt = Thread.delay (delay_ms p ~attempt /. 1000.)
