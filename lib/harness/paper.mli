(** The paper's reported numbers, for side-by-side output.

    Sources: Table 1 (component overheads), Section 6.2.1 (offset-invariant
    addressing), Section 6.2.4 (webserver throughput), Section 6.2.5
    (memory), Figure 6 (full-R2C geomeans), Section 7.2.1 (probability
    example). Table 2's call counts live with the workloads
    ([Spec.benchmark.paper_calls]). *)

val table1 : (string * float * float) list
(** (component, max, geomean) overhead ratios *)

val oia_geomean : float
val oia_max : float

val figure6_geomean_range : float * float
val figure6_worst : string * float  (** omnetpp on Xeon *)

val webserver_drop_intel : (string * float) list
(** throughput decrease on i9-9900K *)

val webserver_drop_amd : float * float  (** range on the AMD machines *)

val spec_memory_overhead : float * float  (** 1-3% *)

val webserver_memory_overhead : float  (** ~100% *)

val webserver_memory_btdp_share : float  (** ~55% *)

val guess_probability_example : float  (** (1/11)^4 *)
