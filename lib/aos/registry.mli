(** Registry of optimizing-compiler output: one entry per method that has
    been opt-compiled, tracking its current version, expansion statistics,
    the set of call edges its current code has inlined (consumed by the
    missing-edge organizer), and the rules version it was compiled
    against. Also aggregates the code-space and compile-time totals the
    evaluation reports. *)

open Acsi_bytecode

type entry = {
  mutable version : int;
  mutable stats : Acsi_jit.Expand.stats;
  mutable rule_stamp : int;  (** rules version the code was built against *)
  inlined : (int * int * int, unit) Hashtbl.t;
      (** (source caller, source pc, callee) edges inlined in current code *)
  inlined_methods : (int, unit) Hashtbl.t;
      (** methods whose bodies appear inlined in current code (callees and
          inline parents) — the roots whose code contains a given call
          site, needed by the missing-edge organizer *)
}

type t

val create : Program.t -> t

val record : t -> Ids.Method_id.t -> Acsi_jit.Expand.stats -> rule_stamp:int -> unit
(** Record a(nother) compilation of the method; bumps its version and
    replaces its inlined-edge set. *)

val entry : t -> Ids.Method_id.t -> entry option

val has_inlined :
  t -> root:Ids.Method_id.t -> caller:Ids.Method_id.t -> callsite:int ->
  callee:Ids.Method_id.t -> bool
(** Whether [root]'s current optimized code inlined the given source
    edge. *)

val contains_method : t -> root:Ids.Method_id.t -> Ids.Method_id.t -> bool
(** Whether [root]'s current code contains (an inlined copy of) the given
    method's body — i.e. call sites of that method may live inside
    [root]'s code. *)

val roots_containing : t -> Ids.Method_id.t -> Ids.Method_id.t list
(** Every opt-compiled root [r] with [contains_method ~root:r mid], in
    ascending method-id order (the order a scan over the registry visits
    entries). Served from an inverted method->roots index maintained on
    {!record}; cost is the size of the answer, not of the registry. *)

val opt_method_count : t -> int
(** Methods with an entry; served from a maintained counter, O(1). *)

val opt_compilation_count : t -> int

val installed_bytes : t -> int
(** Bytes of currently installed optimized code. *)

val cumulative_bytes : t -> int
(** Bytes of optimized code generated over the whole run, counting
    recompilations (the paper's Figure 5 metric: space consumed by the
    optimizing compiler's output). *)

val cumulative_compile_cycles : t -> int

val iter : t -> f:(Ids.Method_id.t -> entry -> unit) -> unit
