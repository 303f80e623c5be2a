(** Deterministic load generation and latency statistics.

    Everything is seeded integer arithmetic on the virtual clock — no
    wall clock, no floats in the schedule itself — so identical seeds
    produce identical arrival schedules on every host. *)

val next_rand : int -> int
(** One step of the (splitmix-style) deterministic PRNG: maps a state to
    the next state. Exposed so schedules can be reproduced in tests. *)

val open_loop_arrivals : seed:int -> period:int -> n:int -> int array
(** [n] request arrival cycles for an open-loop (arrival-driven) load:
    inter-arrival gaps are drawn uniformly from [[period/2 + 1,
    period/2 + period]], so the mean inter-arrival is about [period]
    and arrivals are strictly increasing. *)

val percentile : int array -> float -> int
(** Nearest-rank percentile of an (unsorted) sample; [percentile xs 50.0]
    is the median. 0 on an empty sample. Exact (full copy + sort): this
    is the reference spec that {!percentiles} and the log-bucketed
    {!Acsi_obs.Hist.quantile} are tested against. The pinned summary
    percentiles come from {!percentiles}; histograms serve the telemetry
    surfaces. *)

val percentiles : int array -> float array -> int array
(** [percentiles xs ps] is [Array.map (percentile xs) ps], sorting one
    copy of [xs] for all of [ps]. *)

val mean : int array -> float
(** Arithmetic mean; 0 on an empty sample. *)

val warmup_requests : int array -> int
(** Time-to-steady-state over latencies in completion order: the number
    of leading requests before the rolling window mean (window =
    [max 1 (n/8)]) first settles within 25% of the steady-state mean
    (the mean of the final window). Returns [n] when the run never
    settles. *)
