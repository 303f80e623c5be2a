(** Metrics extracted from a completed run: everything the paper's
    evaluation reports, plus enough detail to debug a policy. *)

open Acsi_aos

type t = {
  policy : string;
  (* time *)
  total_cycles : int;  (** wall clock: application + all AOS components *)
  app_cycles : int;
  aos_cycles : int;
  component_cycles : (Accounting.component * int) list;
  (* code space *)
  opt_code_bytes : int;
      (** cumulative optimized machine code generated (Figure 5 metric) *)
  installed_opt_bytes : int;
  baseline_code_bytes : int;
  (* compilation *)
  opt_compile_cycles : int;
  opt_compilations : int;
  opt_methods : int;
  baseline_methods : int;
  (* profiling *)
  method_samples : int;
  trace_samples : int;
  dcg_size : int;
  rule_count : int;
  refusals : int;
  refusals_by_reason : (string * int) list;
      (** {!refusals} broken down by {!Acsi_jit.Oracle.refusal_reason}
          taxonomy string, in canonical reason order, zero counts
          included; sums to [refusals] *)
  (* execution detail *)
  instructions : int;
  calls : int;
  guard_hits : int;
  guard_misses : int;
  inline_total : int;
  guard_sites : int;
  output_checksum : int;
  (* program shape (Table 1) *)
  classes_loaded : int;
  methods_compiled : int;
  bytecodes_compiled : int;
  (* scheduler / server counters *)
  osr_count : int;  (** [osr_up + osr_down]: all on-stack transfers *)
  osr_up : int;
      (** transfers {e into} installed optimized code, all through
          {!Acsi_vm.Interp.osr_into}: a single stale frame (baseline or
          an older optimized version) or, with speculation, the frames
          of a now-inlined chain *)
  osr_down : int;
      (** optimized frames deoptimized back to baseline
          ({!Acsi_vm.Interp.deopt_top_frame}); broken down by reason in
          {!deopt_guard} / {!deopt_invalidate} *)
  deopt_guard : int;  (** deopts after repeated inline-guard failure *)
  deopt_invalidate : int;
      (** deopts after a class load broke a speculation assumption *)
  async_installs : int;  (** background-model code installations *)
  max_compile_queue_depth : int;
      (** high-water mark of the AOS compile queue *)
  overlapped_aos_cycles : int;
      (** AOS cycles charged to the component accounting but not to the
          shared clock: background-compile work overlapped with mutator
          execution. The accounting identity is
          [app_cycles = total_cycles - (aos_cycles -
          overlapped_aos_cycles)]; in the stalling model it is 0 and
          [total = app + aos] holds exactly. *)
}

val of_run : Acsi_vm.Interp.t -> System.t -> t

(** {2 Snapshots}

    Counters on a shared VM + AOS instance advance monotonically across
    all the virtual threads and requests multiplexed onto it. To report
    per-request or per-window numbers without double-counting, take a
    {!snapshot} at each boundary and report {!diff}s. *)

type snapshot = {
  s_cycles : int;
  s_aos_cycles : int;
  s_instructions : int;
  s_calls : int;
  s_guard_hits : int;
  s_guard_misses : int;
  s_osr : int;
  s_osr_down : int;
  s_method_samples : int;
  s_trace_samples : int;
  s_opt_compilations : int;
      (** optimizing compilations started (background jobs count from
          job start, not install) *)
  s_async_installs : int;
  s_output_len : int;
}

val snapshot : Acsi_vm.Interp.t -> System.t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Fieldwise [after - before]: the activity within the window. *)

val speedup_pct : baseline:t -> t -> float
(** Wall-clock speedup of [t] over [baseline] as the paper plots it:
    positive = faster, in percent. *)

val code_size_change_pct : baseline:t -> t -> float
(** Percent change in optimized code bytes (negative = smaller). *)

val compile_time_change_pct : baseline:t -> t -> float

val component_pct : t -> Accounting.component -> float
(** Percent of total execution time spent in one AOS component
    (Figure 6). *)

val checksum : int list -> int
(** Order-sensitive checksum of a VM output stream. *)

(** {2 Tier cache statistics}

    Traffic counters of the process-global MRU baseline-compile cache
    ({!Acsi_vm.Tier}). Deliberately *not* part of {!t}: the counters are
    shared across every VM in the process and their hit/miss split
    depends on domain interleaving under parallel sweeps, so folding
    them into per-run metrics would break the determinism contract.
    Single-run tools ([acsi-run trace]) report them directly. *)

type cache_stats = Acsi_vm.Tier.cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
}

val tier_cache_stats : unit -> cache_stats
val reset_tier_cache_stats : unit -> unit

val pp : Format.formatter -> t -> unit
