type instance = { mem : int Memory.t; proposals : int array }

let create ~proposals =
  if Array.length proposals < 1 then
    invalid_arg "Snapmin.create: need at least one proposal";
  { mem = Memory.create (Array.length proposals); proposals }

let n inst = Array.length inst.proposals
let id inst = Memory.id inst.mem
let objects inst = [ ("mem", Memory.id inst.mem) ]
let proposal inst pid = inst.proposals.(pid)

let process ?(biased = false) inst ~pid =
  let open Proc in
  let own = inst.proposals.(pid) in
  let* () = Memory.update inst.mem ~pid own in
  let* snap = Memory.snapshot inst.mem in
  let m =
    Array.fold_left
      (fun acc c -> match c with Some v -> min acc v | None -> acc)
      own snap
  in
  return (if biased then m + 1 else m)
