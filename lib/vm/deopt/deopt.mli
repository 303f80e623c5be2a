(** Frame-state mapping for bidirectional on-stack transfer.

    For an installed optimized [Code.t], the deopt table records, per
    optimized pc, how the one physical frame suspended there decomposes
    into the stack of source (baseline) frames it subsumes: for every
    frame of the inline chain, the baseline method and pc to resume at
    and the compensation recipe — where its locals live in the optimized
    register array and which slice of the optimized operand stack is its
    residual stack. The same mapping, read in the two directions, is

    - {e deoptimization} ({!Interp.deopt_top_frame}): optimized →
      baseline, used when an inline guard fails repeatedly or a class
      load invalidates a CHA proof the code speculated on; and
    - {e on-stack replacement} ({!osr_up} / {!Interp.osr_into}):
      stale → optimized. A single-frame transfer is the one-plan point
      at a root-level pc; a multi-frame transfer collapses the live
      frames of an inline chain into one optimized frame — the "OSR à
      la Carte" shape, one compensation map serving both directions.

    Tables are pure functions of [(program, code)]: construction
    performs host-side analysis only and charges nothing; the AOS
    charges {!Cost.deopt_frame} per frame a transfer touches. A pc maps
    to a point only when the mapping is {e provably} valid — the source
    chain's entry depths, argument-slot residuals and region local bases
    must all be recoverable and must sum to exactly the optimized pc's
    verifier entry depth. Synthesized instructions (argument stores,
    guards' fail paths) and peephole-perturbed entries simply get no
    point; {!Acsi_analysis.Jit_check} requires speculative regions to be
    dominated by mapped pcs, not covered. *)

open Acsi_bytecode
open Acsi_vm

type point = Interp.frame_plan array
(** Source frames to reconstruct, outermost (root) first. *)

type table

val table_of_code : Program.t -> Code.t -> table
(** Build the deopt table for [code]. Baseline code yields an empty
    table (no pc needs a mapping — the code {e is} the source). *)

val meth : table -> Ids.Method_id.t

val point_at : table -> pc:int -> point option
(** The valid deopt point at [pc], if the frame state there is provably
    reconstructible. *)

val point_count : table -> int
(** Number of pcs with a valid point (diagnostics and tests). *)

val covered : table -> pc:int -> bool
(** [point_at] is [Some _] — convenience for dominance checks. *)

val top_is_stale : Interp.t -> Code.t -> bool
(** The VM's top frame runs code of [code]'s method other than [code]
    itself: baseline or an older optimized version. Only such a frame
    can make a single-frame transfer. *)

val osr_up : ?multi_frame:bool -> Interp.t -> table -> int
(** Attempt an upward transfer onto the table's code, which must be the
    currently installed code for its method (otherwise nothing moves).
    The single-frame point is tried first: a {!top_is_stale} frame at a
    root-level source pc lands on the first root-level entry for that
    pc, if that entry has a point whose depth the frame carries. With
    [multi_frame] (default [false]), the top [k >= 2] frames, all
    running baseline code, may then collapse at the first point whose
    chain they match (method, pc and operand-stack depth per frame).
    Executes the transfer with {!Interp.osr_into} and returns the number
    of source frames moved, [0] when none. Charges nothing. Only safe
    at an instruction boundary (a VM hook). *)
