(* Executable specifications for the differential tests: the naive or
   pre-index form of each kernel the library implements faster. Every
   spec must agree with its library kernel exactly — results, order,
   and for the interpreter cycles, counters, output and hook timing. *)

open Acsi_bytecode
open Acsi_vm
open Acsi_profile
open Acsi_aos

(* --- the interpreter ([Interp.run]) --- *)

(* The register store, bounds-checked. *)
let set_checked (regs : Value.t array) i v = regs.(i) <- v

(* The naive instruction-at-a-time loop: the timer is compared before
   every instruction and every instruction settles its own cycles. *)
let run ?(cycle_limit = max_int) (t : Interp.t) =
  let open Interp in
  enter_main t;
  let base_cost = t.cost.Cost.baseline_instr in
  let opt_cost = t.cost.Cost.opt_instr in
  while t.depth > 0 do
    if t.cycles >= t.next_sample then begin
      t.next_sample <- t.next_sample + t.sample_period;
      if t.cycles > cycle_limit then raise Cycle_limit_exceeded;
      t.on_timer_sample t
    end;
    let fr = t.frames.(t.depth - 1) in
    let instr = fr.f_code.Code.instrs.(fr.f_pc) in
    t.instr_count <- t.instr_count + 1;
    t.cycles <-
      t.cycles
      + (match fr.f_code.Code.tier with
        | Code.Baseline -> base_cost
        | Code.Optimized -> opt_cost);
    let stack = fr.f_regs in
    (match instr with
    | Instr.Const n ->
        set_checked stack fr.f_sp (Value.of_int n);
        fr.f_sp <- fr.f_sp + 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Const_null ->
        set_checked stack fr.f_sp Value.null;
        fr.f_sp <- fr.f_sp + 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Load i ->
        set_checked stack fr.f_sp fr.f_regs.(i);
        fr.f_sp <- fr.f_sp + 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Store i ->
        fr.f_sp <- fr.f_sp - 1;
        set_checked fr.f_regs i stack.(fr.f_sp);
        fr.f_pc <- fr.f_pc + 1
    | Instr.Dup ->
        set_checked stack fr.f_sp stack.(fr.f_sp - 1);
        fr.f_sp <- fr.f_sp + 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Pop ->
        fr.f_sp <- fr.f_sp - 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Swap ->
        let a = stack.(fr.f_sp - 1) in
        set_checked stack (fr.f_sp - 1) stack.(fr.f_sp - 2);
        set_checked stack (fr.f_sp - 2) a;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Binop op ->
        let b = as_int stack.(fr.f_sp - 1) in
        let a = as_int stack.(fr.f_sp - 2) in
        fr.f_sp <- fr.f_sp - 1;
        set_checked stack (fr.f_sp - 1) (Value.of_int (eval_binop op a b));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Neg ->
        set_checked stack (fr.f_sp - 1)
          (Value.of_int (-as_int stack.(fr.f_sp - 1)));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Not ->
        set_checked stack (fr.f_sp - 1)
          (Value.of_int (if Value.truthy stack.(fr.f_sp - 1) then 0 else 1));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Cmp c ->
        let b = stack.(fr.f_sp - 1) in
        let a = stack.(fr.f_sp - 2) in
        fr.f_sp <- fr.f_sp - 1;
        set_checked stack (fr.f_sp - 1) (Value.of_int (eval_cmp c a b));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Jump target -> fr.f_pc <- target
    | Instr.Jump_if target ->
        fr.f_sp <- fr.f_sp - 1;
        if Value.truthy stack.(fr.f_sp) then fr.f_pc <- target
        else fr.f_pc <- fr.f_pc + 1
    | Instr.Jump_ifnot target ->
        fr.f_sp <- fr.f_sp - 1;
        if Value.truthy stack.(fr.f_sp) then fr.f_pc <- fr.f_pc + 1
        else fr.f_pc <- target
    | Instr.New cid ->
        t.cycles <- t.cycles + t.cost.Cost.alloc;
        note_class_load t cid;
        set_checked stack fr.f_sp (Value.alloc t.program cid);
        fr.f_sp <- fr.f_sp + 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Get_field i ->
        let o = as_obj stack.(fr.f_sp - 1) in
        set_checked stack (fr.f_sp - 1) o.Value.fields.(i);
        fr.f_pc <- fr.f_pc + 1
    | Instr.Put_field i ->
        let v = stack.(fr.f_sp - 1) in
        let o = as_obj stack.(fr.f_sp - 2) in
        fr.f_sp <- fr.f_sp - 2;
        o.Value.fields.(i) <- v;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Get_global i ->
        set_checked stack fr.f_sp t.globals.(i);
        fr.f_sp <- fr.f_sp + 1;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Put_global i ->
        fr.f_sp <- fr.f_sp - 1;
        t.globals.(i) <- stack.(fr.f_sp);
        fr.f_pc <- fr.f_pc + 1
    | Instr.Array_new ->
        let n = as_int stack.(fr.f_sp - 1) in
        if n < 0 then rerr "negative array size %d" n;
        t.cycles <-
          t.cycles + t.cost.Cost.alloc + (n * t.cost.Cost.alloc_array_word);
        set_checked stack (fr.f_sp - 1) (Value.arr (Array.make n Value.zero));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Array_get ->
        let i = as_int stack.(fr.f_sp - 1) in
        let a = as_arr stack.(fr.f_sp - 2) in
        if i < 0 || i >= Array.length a then
          rerr "array index %d out of bounds (length %d)" i (Array.length a);
        fr.f_sp <- fr.f_sp - 1;
        set_checked stack (fr.f_sp - 1) a.(i);
        fr.f_pc <- fr.f_pc + 1
    | Instr.Array_set ->
        let v = stack.(fr.f_sp - 1) in
        let i = as_int stack.(fr.f_sp - 2) in
        let a = as_arr stack.(fr.f_sp - 3) in
        if i < 0 || i >= Array.length a then
          rerr "array index %d out of bounds (length %d)" i (Array.length a);
        fr.f_sp <- fr.f_sp - 3;
        a.(i) <- v;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Array_len ->
        let a = as_arr stack.(fr.f_sp - 1) in
        set_checked stack (fr.f_sp - 1) (Value.of_int (Array.length a));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Call_static mid -> invoke t mid
    | Instr.Call_direct mid -> invoke t mid
    | Instr.Call_virtual (sel, argc) ->
        t.cycles <- t.cycles + t.cost.Cost.virtual_dispatch;
        let recv = stack.(fr.f_sp - 1 - argc) in
        invoke t (dispatch_target t recv sel)
    | Instr.Guard_method g ->
        t.cycles <- t.cycles + t.cost.Cost.guard;
        let recv = stack.(fr.f_sp - 1 - g.Instr.argc) in
        if guard_ok t g recv then begin
          t.guard_hits <- t.guard_hits + 1;
          fr.f_pc <- fr.f_pc + 1
        end
        else begin
          t.guard_misses <- t.guard_misses + 1;
          t.on_guard_miss t fr.f_code.Code.meth fr.f_pc;
          fr.f_pc <- g.Instr.fail
        end
    | Instr.Return ->
        let result = stack.(fr.f_sp - 1) in
        t.depth <- t.depth - 1;
        if t.depth > 0 then begin
          let caller = t.frames.(t.depth - 1) in
          set_checked caller.f_regs caller.f_sp result;
          caller.f_sp <- caller.f_sp + 1;
          caller.f_pc <- caller.f_pc + 1
        end
    | Instr.Return_void ->
        t.depth <- t.depth - 1;
        if t.depth > 0 then begin
          let caller = t.frames.(t.depth - 1) in
          caller.f_pc <- caller.f_pc + 1
        end
    | Instr.Instance_of cid ->
        set_checked stack (fr.f_sp - 1)
          (Value.of_bool (instance_of t cid stack.(fr.f_sp - 1)));
        fr.f_pc <- fr.f_pc + 1
    | Instr.Print_int ->
        fr.f_sp <- fr.f_sp - 1;
        t.output_rev <- as_int stack.(fr.f_sp) :: t.output_rev;
        fr.f_pc <- fr.f_pc + 1
    | Instr.Nop -> fr.f_pc <- fr.f_pc + 1);
    ()
  done

(* --- the profile and AOS kernels --- *)

(* [System.flag_decisions] in its pre-view form: rebuild flat per-site
   and per-context aggregates from the whole trace table, then scan them
   with nested folds. *)
let flag_decisions dcg ~skew_threshold ~min_context_share =
  let site_total : (int * int, float ref) Hashtbl.t = Hashtbl.create 32 in
  let site_callee : (int * int * int, float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let ctx_total : ((int * int) list, float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let ctx_callee : ((int * int) list * int, float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let bump tbl key w =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r +. w
    | None -> Hashtbl.add tbl key (ref w)
  in
  Dcg.iter dcg ~f:(fun trace w ->
      let e0 = trace.Trace.chain.(0) in
      let site = ((e0.Trace.caller :> int), e0.Trace.callsite) in
      let callee = (trace.Trace.callee :> int) in
      bump site_total site w;
      bump site_callee (fst site, snd site, callee) w;
      if Array.length trace.Trace.chain >= 2 then begin
        let ctx =
          Array.to_list trace.Trace.chain
          |> List.map (fun e -> ((e.Trace.caller :> int), e.Trace.callsite))
        in
        bump ctx_total ctx w;
        bump ctx_callee (ctx, callee) w
      end);
  let acc = ref [] in
  Hashtbl.iter
    (fun (caller_i, callsite) total ->
      let callees =
        Hashtbl.fold
          (fun (c, s, callee) w acc ->
            if c = caller_i && s = callsite then (callee, !w) :: acc else acc)
          site_callee []
      in
      match callees with
      | [] | [ _ ] -> ()
      | _ :: _ :: _ ->
          let top =
            List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 callees
          in
          let caller = Ids.Method_id.of_int caller_i in
          let resolve =
            top /. !total >= skew_threshold
            ||
            (* Does some heavy deep context already discriminate? *)
            Hashtbl.fold
              (fun ctx ctotal acc ->
                acc
                ||
                match ctx with
                | (c, s) :: _
                  when c = caller_i && s = callsite
                       && !ctotal >= min_context_share *. !total ->
                    let ctop =
                      Hashtbl.fold
                        (fun (ctx', _) w acc ->
                          if ctx' = ctx then Float.max acc !w else acc)
                        ctx_callee 0.0
                    in
                    ctop /. !ctotal >= skew_threshold
                | _ -> false)
              ctx_total false
          in
          acc := (caller, callsite, resolve) :: !acc)
    site_total;
  !acc

(* [System.recompile_candidates] as a product of linear scans: every
   registry entry probed for containment. *)
let recompile_candidates registry ~caller ~callsite ~callee
    ~rules_version ~max_opt_versions =
  let acc = ref [] in
  Registry.iter registry ~f:(fun root entry ->
      if
        Registry.contains_method registry ~root caller
        && entry.Registry.rule_stamp < rules_version
        && entry.Registry.version < max_opt_versions
        && not (Registry.has_inlined registry ~root ~caller ~callsite ~callee)
      then acc := root :: !acc);
  List.rev !acc

(* [Registry.roots_containing] without the inverted index. *)
let roots_containing registry mid =
  let acc = ref [] in
  Registry.iter registry ~f:(fun root _entry ->
      if Registry.contains_method registry ~root mid then acc := root :: !acc);
  List.rev !acc

(* [Rules.candidates] before indexing and memoization: applicable rules
   grouped by context in association lists. The per-callee weights are
   summed in [applicable] order and folded out of a table filled the
   same way the library fills its own, so equal-weight ties come out in
   the same order under the stable sort. *)
let weights_of_applicable applicable =
  let weight_of = Hashtbl.create 8 in
  List.iter
    (fun (r : Rules.rule) ->
      let key = (r.Rules.trace.Trace.callee :> int) in
      let prev = Option.value (Hashtbl.find_opt weight_of key) ~default:0.0 in
      Hashtbl.replace weight_of key (prev +. r.Rules.weight))
    applicable;
  weight_of

let candidates ?(exact = false) t ~site_chain =
  if Array.length site_chain = 0 then []
  else
    let applicable = Rules.applicable ~exact t ~site_chain in
    match applicable with
    | [] -> []
    | _ :: _ ->
        (* Group by context. Contexts are few per site; association lists
           keep the code simple. *)
        let groups = ref [] in
        List.iter
          (fun (r : Rules.rule) ->
            let chain = r.Rules.trace.Trace.chain in
            let rec insert = function
              | [] -> [ (chain, ref [ r ]) ]
              | ((c, rs) as g) :: rest ->
                  if
                    Array.length c = Array.length chain
                    && Trace.context_matches ~rule_chain:c ~site_chain:chain
                  then begin
                    rs := r :: !rs;
                    g :: rest
                  end
                  else g :: insert rest
            in
            groups := insert !groups)
          applicable;
        let weight_of = weights_of_applicable applicable in
        let in_group callee (_, rs) =
          List.exists
            (fun (r : Rules.rule) ->
              Ids.Method_id.equal r.Rules.trace.Trace.callee callee)
            !rs
        in
        let survivors =
          Hashtbl.fold
            (fun key w acc ->
              let callee = Ids.Method_id.of_int key in
              if List.for_all (in_group callee) !groups then
                (callee, w) :: acc
              else acc)
            weight_of []
        in
        List.sort (fun (_, a) (_, b) -> Float.compare b a) survivors

