type t = {
  metrics : Metrics.t;
  events : Events.t;
  mutable profiles : (string * Profile.t) list;
}

let create ?limit () =
  { metrics = Metrics.create (); events = Events.create ?limit (); profiles = [] }

let add_profile t label p = t.profiles <- t.profiles @ [ (label, p) ]
let profile t label = List.assoc_opt label t.profiles
