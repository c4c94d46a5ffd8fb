module B = Builder

type flavour = [ `Nginx | `Apache ]

(* Shared pieces: a routing hash, a 64-byte page template, access stats,
   and a connection table on the heap. *)

let page_template =
  "<html><body>r2c test page 0123456789 abcdefghijklmnopqrstuv</body>\000"

let route_fn () =
  let fb = B.func "ws_route" ~nparams:1 in
  let path = B.param 0 in
  let m = B.binop fb Ir.Mul path (Ir.Const 0x9e3779b9) in
  let m2 = B.binop fb Ir.And m (Ir.Const 0x3fffffff) in
  let h = B.binop fb Ir.Rem m2 (Ir.Const 64) in
  let off = B.binop fb Ir.Mul h (Ir.Const 8) in
  let slot = B.binop fb Ir.Add (Ir.Global "ws_routes") off in
  let hits = B.load fb slot 0 in
  B.store fb slot 0 (B.binop fb Ir.Add hits (Ir.Const 1));
  B.ret fb (Some h);
  B.finish fb

let serve_static_fn () =
  (* Copy the page template into the response buffer, xoring in the route
     id (ETag flavour). *)
  let fb = B.func "ws_serve_static" ~nparams:1 in
  let route = B.param 0 in
  B.for_ fb ~from:(Ir.Const 0) ~below:(Ir.Const 64) (fun i ->
      let src = B.binop fb Ir.Add (Ir.Global "ws_page") i in
      let c = B.load8 fb src 0 in
      let dst = B.binop fb Ir.Add (Ir.Global "ws_resp") i in
      B.store8 fb dst 0 c);
  let tag = B.binop fb Ir.And route (Ir.Const 0x3f) in
  B.store8 fb (B.binop fb Ir.Add (Ir.Global "ws_resp") tag) 0 (Ir.Const 0x2a);
  B.ret fb (Some (Ir.Const 64));
  B.finish fb

let log_access_fn () =
  let fb = B.func "ws_log_access" ~nparams:2 in
  let served = B.load fb (Ir.Global "ws_served") 0 in
  B.store fb (Ir.Global "ws_served") 0 (B.binop fb Ir.Add served (Ir.Const 1));
  let bytes = B.load fb (Ir.Global "ws_bytes") 0 in
  B.store fb (Ir.Global "ws_bytes") 0 (B.binop fb Ir.Add bytes (B.param 1));
  let chk = B.load fb (Ir.Global "ws_chk") 0 in
  let m = B.binop fb Ir.Mul chk (Ir.Const 31) in
  let m2 = B.binop fb Ir.Add m (B.param 0) in
  let m3 = B.binop fb Ir.And m2 (Ir.Const 0x3fff_ffff) in
  B.store fb (Ir.Global "ws_chk") 0 m3;
  B.ret fb (Some (Ir.Const 0));
  B.finish fb

let parse_request_fn () =
  (* Scan a synthetic request line for the path id: a short byte loop, the
     header-parsing flavour of both servers. *)
  let fb = B.func "ws_parse_request" ~nparams:1 in
  let seed = B.param 0 in
  let acc = B.slot fb 8 in
  B.store fb (B.slot_addr fb acc) 0 (Ir.Const 0);
  B.for_ fb ~from:(Ir.Const 0) ~below:(Ir.Const 24) (fun i ->
      let c = B.load8 fb (B.binop fb Ir.Add (Ir.Global "ws_reqline") i) 0 in
      let cur = B.load fb (B.slot_addr fb acc) 0 in
      let m = B.binop fb Ir.Mul cur (Ir.Const 17) in
      let m2 = B.binop fb Ir.Add m c in
      B.store fb (B.slot_addr fb acc) 0 (B.binop fb Ir.And m2 (Ir.Const 0xffffff)));
  let v = B.load fb (B.slot_addr fb acc) 0 in
  B.ret fb (Some (B.binop fb Ir.Xor v seed));
  B.finish fb

(* Apache dispatches each request through extra per-module hooks. *)
let hook_fn name =
  let fb = B.func name ~nparams:1 in
  let v = B.binop fb Ir.Xor (B.param 0) (Ir.Const 0x1234) in
  let v2 = B.binop fb Ir.Add v (Ir.Const 1) in
  B.ret fb (Some v2);
  B.finish fb

let server flavour ~requests =
  let main = B.func "main" ~nparams:0 in
  (* The connection table: a realistic slice of worker heap. *)
  B.call_void main (Ir.Builtin "malloc_pages") [ Ir.Const 16 ];
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const requests) (fun i ->
      let path = B.call main (Ir.Direct "ws_parse_request") [ i ] in
      let path2 =
        match flavour with
        | `Nginx -> path
        | `Apache ->
            (* module hook chain *)
            let a = B.call main (Ir.Direct "ws_hook_auth") [ path ] in
            let b = B.call main (Ir.Direct "ws_hook_rewrite") [ a ] in
            B.call main (Ir.Direct "ws_hook_mime") [ b ]
      in
      let route = B.call main (Ir.Direct "ws_route") [ path2 ] in
      let n = B.call main (Ir.Direct "ws_serve_static") [ route ] in
      B.call_void main (Ir.Direct "ws_log_access") [ route; n ]);
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "ws_served") 0 ];
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "ws_chk") 0 ];
  B.ret main (Some (Ir.Const 0));
  let funcs =
    [ route_fn (); serve_static_fn (); log_access_fn (); parse_request_fn () ]
    @ (match flavour with
      | `Nginx -> []
      | `Apache -> [ hook_fn "ws_hook_auth"; hook_fn "ws_hook_rewrite"; hook_fn "ws_hook_mime" ])
    @ [ B.finish main ]
  in
  let reqline =
    "GET /index-000.html HTTP/1.1\000" (* 24 bytes scanned *)
  in
  B.program ~main:"main" funcs
    [
      { Ir.gname = "ws_routes"; gsize = 8 * 64; ginit = [] };
      { Ir.gname = "ws_page"; gsize = 72; ginit = [ Ir.Str page_template ] };
      { Ir.gname = "ws_resp"; gsize = 72; ginit = [] };
      { Ir.gname = "ws_reqline"; gsize = 32; ginit = [ Ir.Str reqline ] };
      { Ir.gname = "ws_served"; gsize = 8; ginit = [] };
      { Ir.gname = "ws_bytes"; gsize = 8; ginit = [] };
      { Ir.gname = "ws_chk"; gsize = 8; ginit = [] };
    ]

let throughput_of_cycles ~requests cycles =
  float_of_int requests /. (cycles /. 1_000_000.0)

let saturation_curve ~cpu_rate ~connections =
  (* Little's-law flavour: each connection sustains a limited in-flight
     rate; the server saturates at the CPU-bound rate. *)
  let per_conn = cpu_rate /. 24.0 in
  List.map
    (fun c ->
      let offered = float_of_int c *. per_conn in
      (c, Float.min offered cpu_rate))
    connections
