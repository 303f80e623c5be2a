(* Per-layer numbers of one traced pass: counts read from each layer's
   public accessors after a run, plus replays that time a layer's public
   entry points on the run's own final state (its optimized roots, rules
   and call graph). Host time comes from the spans around each call. *)

open Acsi_bytecode
module System = Acsi_aos.System
module Registry = Acsi_aos.Registry
module Accounting = Acsi_aos.Accounting
module Interp = Acsi_vm.Interp
module Dcg = Acsi_profile.Dcg
module Rules = Acsi_profile.Rules

exception Trace_mismatch of string

(* Raw sums of the current traced pass, keyed by name; [Main] forms the
   reported ratios from them. *)
let raw : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value (Hashtbl.find_opt raw k) ~default:0.0
let add k v = Hashtbl.replace raw k (get k +. v)
let addi k v = add k (float_of_int v)
let set_max k v = Hashtbl.replace raw k (Float.max (get k) v)

let of_vm vm =
  addi "vm.instructions" (Interp.instructions_executed vm);
  addi "vm.calls" (Interp.calls_executed vm);
  addi "vm.guard_hits" (Interp.guard_hits vm);
  addi "vm.guard_misses" (Interp.guard_misses vm);
  List.iter
    (fun (bucket, cycles, seconds) ->
      addi ("cal." ^ bucket ^ "_cycles") cycles;
      add ("cal." ^ bucket ^ "_s") seconds)
    (Interp.calibration vm)

(* Interp.calibration buckets are sampled inside Runtime.run, so their
   host seconds must fit in the span the benchmark put around it. *)
let check_calibration_within vm ~span_s =
  let buckets =
    List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 (Interp.calibration vm)
  in
  if buckets > span_s *. (1.0 +. 1e-6) +. 1e-6 then
    raise
      (Trace_mismatch
         (Printf.sprintf "calibration buckets %.6fs exceed their run span %.6fs"
            buckets span_s))

let component_metric = function
  | Accounting.Listeners -> "aos.listeners_cycles"
  | Compilation -> "aos.compilation_cycles"
  | Decay_organizer -> "aos.decay_cycles"
  | Ai_organizer -> "aos.ai_cycles"
  | Method_organizer -> "aos.method_org_cycles"
  | Controller -> "aos.controller_cycles"

(* [total_cycles]: the virtual clock the system's overhead is a share of. *)
let of_system sys ~total_cycles =
  let acct = System.accounting sys in
  List.iter
    (fun c -> addi (component_metric c) (Accounting.get acct c))
    Accounting.all_components;
  addi "aos.cycles" (Accounting.total acct);
  addi "total.cycles" total_cycles;
  addi "aos.method_samples" (System.method_samples_taken sys);
  addi "aos.trace_samples" (System.trace_samples_taken sys);
  let reg = System.registry sys in
  Registry.iter reg ~f:(fun _ e ->
      addi "jit.inlines" e.Registry.stats.Acsi_jit.Expand.inline_count;
      addi "jit.guard_sites" e.Registry.stats.Acsi_jit.Expand.guard_count);
  addi "jit.installed_bytes" (Registry.installed_bytes reg);
  addi "jit.cumulative_bytes" (Registry.cumulative_bytes reg);
  addi "jit.compilations" (Registry.opt_compilation_count reg);
  addi "jit.opt_methods" (Registry.opt_method_count reg);
  addi "profile.dcg_traces" (Dcg.size (System.dcg sys));
  addi "profile.rules" (Rules.rule_count (System.rules sys));
  addi "profile.refusals" (Acsi_aos.Db.refusal_count (System.db sys))

(* Replays the uncharged JIT pipeline for every optimized root of [sys]
   against its final rules (expand + peephole, JIT check, closure-tier
   compile), then the organizer kernels on its final call graph. [vm] is
   the run's VM when the caller has it; a fresh one otherwise (tier
   compilation reads only the program and cost model from it). The
   replayed root count must equal the registry's method count, which is
   what Metrics.opt_methods reports. *)
let replay ?vm ~cost program sys =
  let cfg = System.config sys in
  let reg = System.registry sys in
  let oracle =
    Acsi_jit.Oracle.create ~config:cfg.System.oracle_config program
  in
  Acsi_jit.Oracle.set_rules oracle (System.rules sys);
  let vm =
    match vm with Some vm -> vm | None -> Interp.create ~cost program
  in
  let roots = ref 0 in
  Registry.iter reg ~f:(fun mid _ ->
      incr roots;
      let code, _ =
        Span.with_ "jit.expand" (fun () ->
            Acsi_jit.Expand.compile program cost oracle
              ~root:(Program.meth program mid))
      in
      let diags =
        Span.with_ "analysis.jit_check" (fun () ->
            Acsi_analysis.Jit_check.check program code)
      in
      addi "analysis.jit_check_diags" (List.length diags);
      if diags <> [] then
        raise
          (Trace_mismatch
             (Printf.sprintf "Jit_check rejects the replayed code of method %d"
                (mid :> int)));
      ignore (Span.with_ "vm.tier_compile" (fun () -> Acsi_vm.Tier.compile vm code)));
  if !roots <> Registry.opt_method_count reg then
    raise
      (Trace_mismatch
         (Printf.sprintf "replayed %d roots, registry holds %d" !roots
            (Registry.opt_method_count reg)));
  let dcg = System.dcg sys in
  ignore
    (Span.with_ "profile.rules_build" (fun () ->
         Rules.of_hot_traces (Dcg.hot dcg ~threshold:cfg.System.hot_edge_threshold)));
  ignore
    (Span.with_ "profile.flag" (fun () ->
         System.flag_decisions dcg ~skew_threshold:cfg.System.skew_threshold
           ~min_context_share:cfg.System.min_context_share))

let summarize program =
  ignore (Span.with_ "analysis.summary" (fun () -> Acsi_analysis.Summary.analyze program))

(* Host cost of one fork-join round on [jobs] domains over trivial
   items, as the sharded server pays it per barrier round: the median of
   [n] probes, in microseconds. *)
let probe_parallel_map ~jobs ~n =
  let items = List.init jobs Fun.id in
  let one () =
    let t0 = Unix.gettimeofday () in
    ignore
      (Span.with_ "parallel.map" (fun () ->
           Acsi_core.Parallel.map ~jobs (fun x -> x + 1) items));
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  add "parallel.map_us" (Stats.median (List.init n (fun _ -> one ())))
