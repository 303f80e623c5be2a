(** JIT-output verification.

    Re-verifies every [Code.t] the JIT produces — structural
    well-formedness and typed verification of the expanded body via the
    shared transfer table, plus the transformation-specific invariants
    the interpreter and OSR machinery rely on:

    - {b inline-map validity}: every source entry names an existing
      method and pc, every parent link is a call site, and root-level
      entries name the compiled root;
    - {b guard domination}: every instruction of a devirtualized inline
      region is dominated by a [Guard_method] for exactly that target
      at that call site — unless class-hierarchy analysis proves the
      selector monomorphic, or the call site was statically bound (in
      which case the inlined body must be the bound target);
    - {b return discipline}: a rewritten return (a [Jump] whose source
      instruction is a return of an inlined frame) never lands back in
      its own or a more deeply nested inline region (jump threading may
      legally carry it to any {e ancestor} frame);
    - {b OSR compatibility}: for each root source pc, the first
      root-level entry the transfer lands on
      ({!Acsi_deopt.Deopt.osr_up}'s single-frame point), when its
      operand-stack depth equals the source's, carries pairwise-compatible
      types. *)

open Acsi_bytecode
open Acsi_vm

val check : Program.t -> Code.t -> Diag.t list
(** All findings, in pc order. Baseline code (no source map) is the
    method body itself and trivially passes. *)

val check_exn : Program.t -> Code.t -> unit
(** Raises {!Diag.Error} with the first finding, if any. *)
