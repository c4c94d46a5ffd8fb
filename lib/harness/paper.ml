let table1 =
  [
    ("Push", 1.21, 1.06);
    ("AVX", 1.10, 1.04);
    ("BTDP", 1.05, 1.02);
    ("Prolog", 1.06, 1.02);
    ("Layout", 1.02, 1.00);
  ]

let oia_geomean = 1.0079
let oia_max = 1.0361

let figure6_geomean_range = (1.066, 1.085)
let figure6_worst = ("omnetpp (Xeon)", 1.21)

let webserver_drop_intel = [ ("nginx", 0.13); ("apache", 0.12) ]
let webserver_drop_amd = (0.03, 0.04)

let spec_memory_overhead = (0.01, 0.03)
let webserver_memory_overhead = 1.0
let webserver_memory_btdp_share = 0.55

let guess_probability_example = (1.0 /. 11.0) ** 4.0
