module A = Api

let total =
  let module B = Api in
  let { A.x } = { A.x = A.used 1 } in
  let c = { Api.v = x } in
  c.v <- B.Inner.deep + Api.counter.n + Api.frozen.f + Exports_fixture_twin.Api.unused;
  ignore (Api.make_hidden ());
  c.v
