(** Ablation studies for the design choices DESIGN.md calls out.

    Beyond the paper's own tables, these sweeps quantify the trade-offs the
    paper states qualitatively:

    - [btra_count]: overhead versus the analytic guess probability as the
      per-site BTRA count R varies (Section 7.2.1's security knob);
    - [setups]: every setup flavour, reproducing Section 7.1's vector
      claims (SSE fallback; AVX-512 halves the impact, or buys twice the
      BTRAs at the AVX price) and pricing the Section 7.3 consistency
      checks;
    - [btdp_density]: overhead as the per-function BTDP range grows,
      against the expected camouflage ratio;
    - [guard_pages]: memory cost of the guard-page pool;
    - [pool_size]: empirical BTRA-set reuse across call sites as the
      booby-trap pool grows (mimicry property C's combinatorics,
      Section 4.1);
    - [call_overhead_correlation]: Section 7.1's observation that call
      frequency correlates with, but does not predict, overhead. *)

(** [run ()] — every sweep, one table each, then the correlation's
    Pearson r. *)
val run : unit -> Results.t
