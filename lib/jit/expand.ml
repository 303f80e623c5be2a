open Acsi_bytecode
open Acsi_vm

type stats = {
  expanded_units : int;
  inline_count : int;
  guard_count : int;
  compile_cycles : int;
  code_bytes : int;
  inlined_edges : (int * int * int) list;
}

type st = {
  program : Program.t;
  oracle : Oracle.t;
  root : Meth.t;
  buf : Code.src_entry Codebuf.t;
  mutable next_local : int;
  mutable inline_count : int;
  mutable guard_count : int;
  mutable inlined_edges : (int * int * int) list;
  mutable assumptions : (Ids.Selector.t * Ids.Method_id.t) list;
}

let dummy_src root =
  { Code.src_meth = root; src_pc = -1; parents = [] }

(* Emit the body of [m] into the buffer.
   [parents]: inline parents of this body's instructions, innermost-first.
   [chain_methods]: methods on the current inline chain (recursion check).
   [base]: local-slot offset of this body's frame.
   [ret]: where returns of this body go — [None] keeps them (root body),
   [Some l] rewires them to jump to [l]. *)
let rec emit_body st (m : Meth.t) ~parents ~chain_methods ~depth ~base ~ret =
  let body = m.Meth.body in
  let here = Array.map (fun _ -> Codebuf.new_label st.buf) body in
  let src pc = { Code.src_meth = m.Meth.id; src_pc = pc; parents } in
  let synth = { Code.src_meth = m.Meth.id; src_pc = -1; parents } in
  Array.iteri
    (fun pc instr ->
      Codebuf.bind_label st.buf here.(pc);
      match (instr : Instr.t) with
      | Instr.Load i -> Codebuf.emit st.buf (Instr.Load (base + i)) (src pc)
      | Instr.Store i -> Codebuf.emit st.buf (Instr.Store (base + i)) (src pc)
      | Instr.Jump t ->
          Codebuf.emit_branch st.buf (Instr.Jump 0) (src pc) here.(t)
      | Instr.Jump_if t ->
          Codebuf.emit_branch st.buf (Instr.Jump_if 0) (src pc) here.(t)
      | Instr.Jump_ifnot t ->
          Codebuf.emit_branch st.buf (Instr.Jump_ifnot 0) (src pc) here.(t)
      | Instr.Return -> (
          match ret with
          | None -> Codebuf.emit st.buf Instr.Return (src pc)
          | Some l -> Codebuf.emit_branch st.buf (Instr.Jump 0) (src pc) l)
      | Instr.Return_void -> (
          match ret with
          | None -> Codebuf.emit st.buf Instr.Return_void (src pc)
          | Some l -> Codebuf.emit_branch st.buf (Instr.Jump 0) (src pc) l)
      | Instr.Call_static _ | Instr.Call_direct _ | Instr.Call_virtual _ ->
          emit_call st m ~parents ~chain_methods ~depth ~pc ~instr ~src ~synth
      | Instr.Const _ | Instr.Const_null | Instr.Dup | Instr.Pop | Instr.Swap
      | Instr.Binop _ | Instr.Neg | Instr.Not | Instr.Cmp _ | Instr.New _
      | Instr.Get_field _ | Instr.Put_field _ | Instr.Get_global _
      | Instr.Put_global _ | Instr.Array_new | Instr.Array_get
      | Instr.Array_set | Instr.Array_len | Instr.Instance_of _
      | Instr.Guard_method _ | Instr.Print_int | Instr.Nop ->
          Codebuf.emit st.buf instr (src pc))
    body

(* Pop call arguments into a fresh frame for [callee] and splice its body,
   rewiring returns to [l_done]. *)
and emit_inline st (callee : Meth.t) ~caller_id ~pc ~parents ~chain_methods
    ~depth ~synth ~l_done =
  let callee_base = st.next_local in
  st.next_local <- st.next_local + callee.Meth.max_locals;
  let parents' = (caller_id, pc) :: parents in
  let synth' = { synth with Code.src_meth = callee.Meth.id; parents = parents' } in
  for k = Meth.param_slots callee - 1 downto 0 do
    Codebuf.emit st.buf (Instr.Store (callee_base + k)) synth'
  done;
  st.inline_count <- st.inline_count + 1;
  st.inlined_edges <-
    ((caller_id : Ids.Method_id.t :> int), pc, (callee.Meth.id :> int))
    :: st.inlined_edges;
  emit_body st callee ~parents:parents'
    ~chain_methods:(callee.Meth.id :: chain_methods)
    ~depth:(depth + 1) ~base:callee_base ~ret:(Some l_done)

and emit_call st (m : Meth.t) ~parents ~chain_methods ~depth ~pc ~instr ~src
    ~synth =
  let site_chain =
    Array.of_list
      ({ Acsi_profile.Trace.caller = m.Meth.id; callsite = pc }
      :: List.map
           (fun (caller, callsite) ->
             { Acsi_profile.Trace.caller; callsite })
           parents)
  in
  let const_args = Size.const_args_at m.Meth.body ~pc in
  let decision =
    Oracle.decide st.oracle ~root:st.root ~site_chain ~chain_methods ~depth
      ~expanded_units:(Codebuf.length st.buf) ~call:instr ~const_args
  in
  match decision with
  | Oracle.No_inline -> Codebuf.emit st.buf instr (src pc)
  | Oracle.Inline targets -> (
      let l_done = Codebuf.new_label st.buf in
      (match (instr : Instr.t) with
      | Instr.Call_static _ | Instr.Call_direct _ -> (
          match targets with
          | [ { Oracle.target; guarded = false; _ } ] ->
              emit_inline st
                (Program.meth st.program target)
                ~caller_id:m.Meth.id ~pc ~parents ~chain_methods ~depth ~synth
                ~l_done
          | [] | [ { Oracle.guarded = true; _ } ] | _ :: _ :: _ ->
              invalid_arg "Expand: bad oracle decision for a bound call")
      | Instr.Call_virtual (sel, argc) -> (
          match targets with
          | [ { Oracle.target; guarded = false; speculative } ] ->
              (* CHA-monomorphic over the sealed universe — statically
                 bound, no guard; or speculative: monomorphic only over
                 the loaded universe, still no guard, but the assumption
                 is recorded on the code so the AOS can invalidate it
                 when a class load breaks it. *)
              if speculative then begin
                let a = (sel, target) in
                if not (List.mem a st.assumptions) then
                  st.assumptions <- a :: st.assumptions
              end;
              emit_inline st
                (Program.meth st.program target)
                ~caller_id:m.Meth.id ~pc ~parents ~chain_methods ~depth ~synth
                ~l_done
          | _ :: _ ->
              List.iter
                (fun { Oracle.target; guarded; _ } ->
                  if not guarded then
                    invalid_arg
                      "Expand: unguarded target among guarded ones";
                  let l_next = Codebuf.new_label st.buf in
                  st.guard_count <- st.guard_count + 1;
                  Codebuf.emit_branch st.buf
                    (Instr.Guard_method
                       { Instr.expected = target; sel; argc; fail = 0 })
                    (src pc) l_next;
                  emit_inline st
                    (Program.meth st.program target)
                    ~caller_id:m.Meth.id ~pc ~parents ~chain_methods ~depth
                    ~synth ~l_done;
                  Codebuf.bind_label st.buf l_next)
                targets;
              (* Fallback: the original virtual dispatch. *)
              Codebuf.emit st.buf (Instr.Call_virtual (sel, argc)) (src pc)
          | [] -> invalid_arg "Expand: empty inline decision")
      | Instr.Const _ | Instr.Const_null | Instr.Load _ | Instr.Store _
      | Instr.Dup | Instr.Pop | Instr.Swap | Instr.Binop _ | Instr.Neg
      | Instr.Not | Instr.Cmp _ | Instr.Jump _ | Instr.Jump_if _
      | Instr.Jump_ifnot _ | Instr.New _ | Instr.Get_field _
      | Instr.Put_field _ | Instr.Get_global _ | Instr.Put_global _
      | Instr.Array_new | Instr.Array_get | Instr.Array_set
      | Instr.Array_len | Instr.Return | Instr.Return_void
      | Instr.Instance_of _ | Instr.Guard_method _ | Instr.Print_int
      | Instr.Nop ->
          invalid_arg "Expand: inline decision for a non-call");
      Codebuf.bind_label st.buf l_done)

let compile program cost oracle ~root =
  let st =
    {
      program;
      oracle;
      root;
      buf = Codebuf.create ~dummy:(dummy_src root.Meth.id);
      next_local = root.Meth.max_locals;
      inline_count = 0;
      guard_count = 0;
      inlined_edges = [];
      assumptions = [];
    }
  in
  emit_body st root ~parents:[] ~chain_methods:[ root.Meth.id ] ~depth:0
    ~base:0 ~ret:None;
  let instrs, srcs = Codebuf.finish st.buf in
  let instrs, srcs =
    if (Oracle.config oracle).Oracle.peephole then
      Peephole.optimize (instrs, srcs)
    else (instrs, srcs)
  in
  let units = Array.length instrs in
  let code =
    {
      Code.meth = root.Meth.id;
      tier = Code.Optimized;
      instrs;
      max_locals = st.next_local;
      max_stack = 0;
      src = Some srcs;
      code_bytes = units * cost.Cost.opt_bytes_per_unit;
      assumptions = List.rev st.assumptions;
    }
  in
  (* Re-verify the optimized body; this computes max_stack and checks the
     transformation (inlining and peephole) kept every bytecode
     invariant. The AOS re-checks the full set of JIT invariants (typed
     verification, guard domination, OSR compatibility) before
     installing, via Acsi_analysis.Jit_check over this same wrapper. *)
  let wrapper = Code.as_meth program code in
  Verify.meth program wrapper;
  let code = { code with Code.max_stack = wrapper.Meth.max_stack } in
  let stats =
    {
      expanded_units = units;
      inline_count = st.inline_count;
      guard_count = st.guard_count;
      compile_cycles =
        cost.Cost.opt_compile_fixed + (units * cost.Cost.opt_compile_unit);
      code_bytes = code.Code.code_bytes;
      inlined_edges = st.inlined_edges;
    }
  in
  (code, stats)
