(** The virtual-cycle cost model.

    All performance numbers in this reproduction are deterministic functions
    of these constants. The absolute values are synthetic; what matters is
    their relative structure, chosen to echo the real machine the paper
    measured on (a Pentium-3 under Jikes RVM):

    - optimized code runs several times faster per bytecode than baseline
      code (Jikes' opt-vs-baseline gap);
    - a call costs tens of instruction-equivalents (frame setup, spill,
      return), virtual dispatch adds a table load, and an inlined call costs
      only its guard;
    - optimizing compilation costs hundreds of cycles per bytecode of
      (post-inlining) code — this is what makes over-aggressive inlining
      expensive — while baseline compilation is an order of magnitude
      cheaper per bytecode;
    - machine code is a constant factor larger than bytecode, bigger under
      the optimizing compiler than under baseline. *)

type t = {
  baseline_instr : int;  (** cycles per instruction in baseline code *)
  opt_instr : int;  (** cycles per instruction in optimized code *)
  call : int;
      (** call + return overhead when the callee runs baseline code *)
  opt_call : int;
      (** call + return overhead when the callee runs optimized code (an
          optimizing compiler emits a far cheaper prologue) *)
  virtual_dispatch : int;  (** additional cost of a virtual dispatch *)
  guard : int;  (** cost of an inline guard (method test) *)
  alloc : int;  (** object allocation *)
  alloc_array_word : int;  (** per-element cost of array allocation *)
  baseline_compile_unit : int;  (** baseline compile cycles per bytecode *)
  baseline_compile_fixed : int;
  opt_compile_unit : int;  (** opt compile cycles per (expanded) bytecode *)
  opt_compile_fixed : int;
  baseline_bytes_per_unit : int;  (** machine-code bytes per bytecode *)
  opt_bytes_per_unit : int;
  method_sample : int;  (** cost of one method-listener sample *)
  trace_sample_frame : int;  (** trace-listener cost per stack frame walked *)
  organizer_per_event : int;  (** DCG organizer cost per buffered sample *)
  ai_organizer_per_trace : int;  (** AI organizer cost per live trace *)
  decay_per_trace : int;  (** decay organizer cost per live trace *)
  controller_per_event : int;  (** controller cost per organizer event *)
  probe : int;
      (** cost of one software tracing probe (an observability event
          record). Charged to the virtual clock only when the run opts
          into an on-clock probe model
          ([Acsi_obs.Control.probe_on_clock]); never charged to the
          per-component accounting, so tracing's own cost is visible in
          total time without perturbing the Figure-6 breakdown. *)
  deopt_frame : int;
      (** cost per source frame reconstructed (or consumed) by an
          on-stack transfer between tiers — charged by the AOS for each
          frame a {!Interp.deopt_top_frame} plan reconstructs or a
          multi-frame {!Interp.osr_into} collapse consumes, modeling
          frame-state extraction and repack. A single-frame upward
          transfer is not charged: it repacks no inline state. *)
}

val default : t
