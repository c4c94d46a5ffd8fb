(* Host-speed calibration.

   The sandbox this benchmark was tuned on drifts by about ±25% in speed
   from one run to the next (other tenants share its cores), and every
   host timing of a run moves with it. [kernel] is a fixed piece of work
   that belongs to the benchmark alone — a small register machine
   interpreting a fixed program, allocation-free so the system's heap
   cannot slow it — and no change to the system can make it faster or
   slower. It is timed between the measured operations throughout a run;
   the run's host timings are then reported at nominal host speed:
   scaled by [nominal_ms / median kernel time]. The raw timings and the
   factor are kept in the run's results line.

   [nominal_ms] is the kernel's median on the 2-vCPU x86-64 sandbox the
   bounds were tuned on (median 0.98 ms over nine runs, 0.83-1.23 ms
   apart), so scaled figures
   read in real host units at that machine's speed. *)

let nominal_ms = 1.0
let steps = 240_000

let prog = [| 0; 1; 2; 3; 1; 0; 2; 1; 3; 2; 0; 1; 2; 3; 0; 2 |]
let regs = Array.make 64 0

let kernel () =
  let r = Sys.opaque_identity regs in
  let acc = ref 1 in
  for i = 0 to steps - 1 do
    match prog.(i land 15) with
    | 0 -> r.(i land 63) <- !acc + i
    | 1 -> acc := !acc lxor r.((i * 7) land 63)
    | 2 -> if !acc land 1 = 0 then acc := (!acc lsr 1) + 3 else acc := (!acc * 5) land 0xffffff
    | _ -> r.((i + !acc) land 63) <- r.(i land 63) + 1
  done;
  ignore (Sys.opaque_identity !acc)

let samples : float list ref = ref []

let kernel_ms () =
  let t0 = Span.now_ns () in
  kernel ();
  let ms = Span.ms_between t0 (Span.now_ns ()) in
  samples := ms :: !samples;
  ms

let sample () = ignore (kernel_ms ())

(* Host speed relative to nominal: below 1 on a slow spell. *)
let speed () = nominal_ms /. Stats.median !samples
