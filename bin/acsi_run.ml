(* Command-line driver: run one benchmark under one context-sensitivity
   policy and print the run's metrics, optionally with the compilation log
   and the baseline comparison the paper's figures are built from. The
   subcommands serve, trace, explain, profile, lint and analyze
   programs; every one that runs a program builds its configuration from
   the same policy option and engine-settings flags (see [config]). *)

open Acsi_core
open Cmdliner
module Policy = Acsi_policy.Policy
module Settings = Acsi_settings.Settings
module Workloads = Acsi_workloads.Workloads
module Server = Acsi_server.Server
module Shards = Acsi_server.Shards

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_buffer path buf =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let find_bench name =
  match Workloads.find name with
  | spec -> Some spec
  | exception Not_found ->
      Format.eprintf "unknown benchmark %S (use --list)@." name;
      None

let build (spec : Workloads.spec) scale =
  let scale = Option.value scale ~default:spec.Workloads.default_scale in
  (scale, spec.Workloads.build ~scale)

(* --- shared arguments --- *)

(* --verbose, applied before the subcommand runs. *)
let logs =
  let setup verbose =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
  in
  Term.(
    const setup
    $ Arg.(
        value & flag
        & info [ "v"; "verbose" ]
            ~doc:"Log adaptive-system events (compilations, rule rebuilds)."))

(* The configuration of every subcommand that runs a program: the policy
   plus the engine-settings table every entry point shares. *)
let config =
  let policy =
    Arg.conv
      ( (fun s ->
          match Policy.of_string s with
          | Some p -> Ok p
          | None ->
              Error
                (`Msg
                  (Printf.sprintf
                     "unknown policy %S (try: cins, fixed(max=3), \
                      paramLess(max=4), class, large, hybrid1, hybrid2, \
                      resolve)"
                     s))),
        fun fmt p -> Format.pp_print_string fmt (Policy.to_string p) )
  in
  Term.(
    const (fun policy settings ->
        Settings.apply settings (Config.default ~policy))
    $ Arg.(
        value
        & opt policy (Policy.Fixed 3)
        & info [ "p"; "policy" ]
            ~doc:
              "Context-sensitivity policy: cins, fixed, paramLess, class, \
               large, hybrid1, hybrid2, resolve; optionally with (max=N).")
    $ Settings.term)

let policy_name (cfg : Config.t) =
  Policy.to_string cfg.Config.aos.Acsi_aos.System.policy

let with_obs (cfg : Config.t) obs =
  { cfg with Config.aos = { cfg.Config.aos with Acsi_aos.System.obs } }

let scale_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "scale" ] ~doc:"Workload scale (default per benchmark).")

let jobs_arg names doc = Arg.(value & opt Settings.positive 1 & info names ~doc)

(* The program a subcommand runs: a textual mini-language file when
   given, a named built-in benchmark otherwise. *)
type target = { bench : string; file : string option; scale : int option }

let target =
  Term.(
    const (fun bench file scale -> { bench; file; scale })
    $ Arg.(
        value & opt string "db" & info [ "b"; "bench" ] ~doc:"Benchmark name.")
    $ Arg.(
        value
        & opt (some file) None
        & info [ "f"; "file" ]
            ~doc:
              "Run a textual mini-language program (.acsi) instead of a \
               named benchmark.")
    $ scale_arg)

(* The program with a human-readable label, or the exit code. *)
let load t =
  match t.file with
  | Some path -> (
      match Acsi_lang.Parser.compile (read_file path) with
      | exception Acsi_bytecode.Verify.Error msg ->
          Format.eprintf "%s@." msg;
          Error 1
      | program -> Ok (path, program))
  | None -> (
      match find_bench t.bench with
      | None -> Error 2
      | Some spec ->
          let scale, program = build spec t.scale in
          Ok (Printf.sprintf "%s at scale %d" t.bench scale, program))

(* "Cls.name" display names for trace/explain output. *)
let qualified_name program mid =
  let m = Acsi_bytecode.Program.meth program mid in
  let c = Acsi_bytecode.Program.clazz program m.Acsi_bytecode.Meth.owner in
  c.Acsi_bytecode.Clazz.name ^ "." ^ m.Acsi_bytecode.Meth.name

(* --- the default command: one run --- *)

let list_benchmarks () =
  Format.printf "@[<v>Available benchmarks:@,";
  List.iter
    (fun (s : Workloads.spec) ->
      Format.printf "  %-10s %s (default scale %d)@," s.Workloads.name
        s.description s.default_scale)
    Workloads.all;
  Format.printf "@]%!";
  0

(* Print the installed code of every method whose (unmangled) name
   contains [pattern]: the post-run view of what the JIT produced. *)
let disassemble program vm pattern =
  Array.iter
    (fun (m : Acsi_bytecode.Meth.t) ->
      let name = m.Acsi_bytecode.Meth.name in
      let matches =
        let n = String.length name and k = String.length pattern in
        let rec go i =
          i + k <= n
          && (String.equal (String.sub name i k) pattern || go (i + 1))
        in
        go 0
      in
      if matches then begin
        let code = Acsi_vm.Interp.code_of vm m.Acsi_bytecode.Meth.id in
        Format.printf "@.%a@." Acsi_vm.Code.pp code
      end)
    (Acsi_bytecode.Program.methods program)

(* Structural + typed verification of a whole program, with diagnostics
   in the [method:pc: message] format. Returns whether it passed. *)
let verify_program program =
  match
    Acsi_bytecode.Verify.program program;
    Acsi_analysis.Typecheck.program program
  with
  | () -> true
  | exception Acsi_bytecode.Verify.Error msg ->
      Format.eprintf "%s@." msg;
      false
  | exception Acsi_analysis.Diag.Error d ->
      Format.eprintf "%s@." (Acsi_analysis.Diag.to_string d);
      false

let run_one () list_only target cfg compare_baseline show_compilations disasm
    jobs verify =
  if list_only then list_benchmarks ()
  else
    match load target with
    | Error code -> code
    | Ok (label, program) ->
        (* Typed verification before execution: on by default for the
           textual-language pipeline, opt-in for built-in benchmarks. *)
        let verify_on =
          Option.value verify ~default:(Option.is_some target.file)
        in
        if verify_on && not (verify_program program) then 1
        else
          (* With --jobs > 1 the baseline of --compare runs on a second
             domain concurrently with the measured run; both runs are
             deterministic, so the printed numbers do not depend on it. *)
          let runs =
            Parallel.map ~jobs
              (fun cfg -> Runtime.run cfg program)
              (cfg
              :: (if compare_baseline then
                    [ Config.with_policy cfg Policy.Context_insensitive ]
                  else []))
          in
          let result = List.hd runs in
          Format.printf "%s:@.%a@." label Metrics.pp result.Runtime.metrics;
          if show_compilations then begin
            Format.printf "@.Compilation log:@.";
            List.iter
              (fun (e : Acsi_aos.Db.compilation_event) ->
                let m =
                  Acsi_bytecode.Program.meth program e.Acsi_aos.Db.ce_method
                in
                Format.printf
                  "  %-22s v%d %4d units %5d bytes %7d cycles %2d inlines %d \
                   guards@."
                  m.Acsi_bytecode.Meth.name e.Acsi_aos.Db.ce_version
                  e.Acsi_aos.Db.ce_units e.Acsi_aos.Db.ce_bytes
                  e.Acsi_aos.Db.ce_cycles e.Acsi_aos.Db.ce_inlines
                  e.Acsi_aos.Db.ce_guards)
              (Acsi_aos.Db.compilations (Acsi_aos.System.db result.Runtime.sys))
          end;
          Option.iter (disassemble program result.Runtime.vm) disasm;
          (match runs with
          | [ _; base ] ->
              let bm = base.Runtime.metrics and m = result.Runtime.metrics in
              Format.printf
                "@.vs context-insensitive baseline:@.  speedup %+.2f%%  code \
                 size %+.2f%%  compile time %+.2f%%@."
                (Metrics.speedup_pct ~baseline:bm m)
                (Metrics.code_size_change_pct ~baseline:bm m)
                (Metrics.compile_time_change_pct ~baseline:bm m)
          | _ -> ());
          0

let run_term =
  Term.(
    const run_one $ logs
    $ Arg.(value & flag & info [ "list" ] ~doc:"List benchmarks and exit.")
    $ target $ config
    $ Arg.(
        value & flag
        & info [ "compare" ]
            ~doc:"Also run the context-insensitive baseline and print deltas.")
    $ Arg.(
        value & flag
        & info [ "compilations" ] ~doc:"Print the optimizing-compilation log.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "disasm" ]
            ~doc:
              "After the run, disassemble the installed code of methods whose \
               name contains the given substring.")
    $ jobs_arg [ "j"; "jobs" ]
        "Domains to use; with --compare, 2+ runs the baseline concurrently \
         with the measured run."
    $ Arg.(
        value
        & vflag None
            [
              ( Some true,
                info [ "verify" ]
                  ~doc:
                    "Run structural and typed verification over the whole \
                     program before executing (default for --file)." );
              ( Some false,
                info [ "no-verify" ] ~doc:"Skip pre-run typed verification." );
            ]))

(* --- trace / explain: the observability subcommands (lib/obs) --- *)

(* `acsi-run trace`: run one workload with the structured tracer (and the
   CCT profiler) enabled, write a Perfetto-loadable Chrome trace-event
   file, and print the Figure-6-style per-component breakdown with its
   reconciliation check: with no ring drops, every AOS component's summed
   span durations must equal its Accounting total exactly. *)
let trace_one () target cfg out jsonl flame min_pct capacity probe_on_clock =
  match load target with
  | Error code -> code
  | Ok (label, program) ->
      let obs =
        {
          Acsi_obs.Control.trace = true;
          provenance = true;
          cprof = true;
          capacity;
          probe_on_clock;
        }
      in
      (* Reset the process-global tier-cache counters so the line below
         reports exactly this run's traffic (deterministic: one VM, no
         concurrent sweeps in this process). *)
      Metrics.reset_tier_cache_stats ();
      let result = Runtime.run (with_obs cfg obs) program in
      let sys = result.Runtime.sys in
      let m = result.Runtime.metrics in
      let tracer = Acsi_aos.System.tracer sys in
      let buf = Buffer.create 65536 in
      Acsi_obs.Export.to_chrome_json buf tracer;
      write_buffer out buf;
      (match jsonl with
      | None -> ()
      | Some path ->
          Buffer.clear buf;
          Acsi_obs.Export.to_jsonl buf tracer;
          write_buffer path buf);
      Format.printf "%s under %s:@." label (policy_name cfg);
      let totals = Acsi_obs.Export.track_totals tracer in
      Format.printf "@.%a@."
        (Acsi_obs.Export.pp_breakdown ~total:m.Metrics.total_cycles)
        totals;
      let inlined, refused =
        match Acsi_aos.System.provenance sys with
        | Some prov -> Acsi_obs.Provenance.outcome_counts prov
        | None -> (0, 0)
      in
      let dropped = Acsi_obs.Tracer.dropped tracer in
      Format.printf
        "@.%d events recorded (%d dropped), %d inline decisions (%d inlined, \
         %d refused)@."
        (Acsi_obs.Tracer.length tracer)
        dropped (inlined + refused) inlined refused;
      let cs = Metrics.tier_cache_stats () in
      Format.printf
        "tier cache: %d hits, %d misses, %d evictions (shared \
         baseline-compile MRU)@."
        cs.Metrics.hits cs.Metrics.misses cs.Metrics.evictions;
      (* On-stack transfer traffic; only under --speculate (or OSR) is
         there anything to say. *)
      if m.Metrics.osr_count > 0 then
        Format.printf
          "osr: %d up / %d down (deopt: %d guard-storm, %d CHA-invalidated; \
           %d speculative installs)@."
          m.Metrics.osr_up m.Metrics.osr_down m.Metrics.deopt_guard
          m.Metrics.deopt_invalidate
          (Acsi_aos.System.speculative_installs sys);
      (* The reconciliation contract (see Acsi_obs.Tracer): only checkable
         when the ring kept every event. *)
      let mismatches =
        List.filter_map
          (fun c ->
            let nm = Acsi_aos.Accounting.component_name c in
            let acct_v =
              Acsi_aos.Accounting.get (Acsi_aos.System.accounting sys) c
            in
            let span_v =
              match List.assoc_opt nm totals with Some v -> v | None -> 0
            in
            if acct_v <> span_v then Some (nm, acct_v, span_v) else None)
          Acsi_aos.Accounting.all_components
      in
      (if dropped > 0 then
         (* A wrapped ring silently undercounts spans, which could mask a
            genuine span-vs-Accounting divergence — so drops fail the
            check rather than skipping it. *)
         Format.printf
           "reconciliation: FAILED — %d events dropped, span totals \
            undercount (raise --capacity)@."
           dropped
       else if mismatches = [] then
         Format.printf
           "reconciliation: OK — every component's span total equals its \
            accounting total@."
       else
         List.iter
           (fun (nm, acct_v, span_v) ->
             Format.printf
               "reconciliation MISMATCH: %s accounting=%d spans=%d@." nm acct_v
               span_v)
           mismatches);
      (if flame then
         match Acsi_aos.System.cprof sys with
         | Some cp ->
             Format.printf "@.%a@."
               (Acsi_obs.Cprof.pp_flame ~name:(qualified_name program) ~min_pct)
               cp
         | None -> ());
      Format.printf "trace written to %s@." out;
      if mismatches <> [] || dropped > 0 then 1 else 0

(* The decisions an explain query selects: every decision, or those at
   call sites in the named method (unqualified or "Cls.name", with or
   without the arity suffix), optionally at one pc. *)
let select_decisions program prov query =
  match query with
  | None -> Ok (Acsi_obs.Provenance.all prov)
  | Some q -> (
      let meth_str, pc =
        match String.index_opt q ':' with
        | None -> (q, Ok None)
        | Some i -> (
            let pc_str = String.sub q (i + 1) (String.length q - i - 1) in
            ( String.sub q 0 i,
              match int_of_string_opt pc_str with
              | Some pc when pc >= 0 -> Ok (Some pc)
              | Some _ | None -> Error pc_str ))
      in
      let unmangled s =
        match String.index_opt s '/' with Some i -> String.sub s 0 i | None -> s
      in
      let callers =
        List.filter_map
          (fun (m : Acsi_bytecode.Meth.t) ->
            let mid = m.Acsi_bytecode.Meth.id in
            let qualified = qualified_name program mid in
            let name = m.Acsi_bytecode.Meth.name in
            if
              List.mem meth_str
                [ name; unmangled name; qualified; unmangled qualified ]
            then Some mid
            else None)
          (Array.to_list (Acsi_bytecode.Program.methods program))
      in
      match (pc, callers) with
      | Error pc_str, _ ->
          Format.eprintf "invalid pc %S in query %S@." pc_str q;
          Error 2
      | Ok _, [] ->
          Format.eprintf
            "no method named %S (try a \"Cls.name\" qualified name)@." meth_str;
          Error 2
      | Ok pc, callers ->
          Ok
            (List.concat_map
               (fun caller ->
                 Acsi_obs.Provenance.at prov ~caller ?callsite:pc ())
               callers))

(* `acsi-run explain [METHOD[:PC]]`: run with the oracle's decision-
   provenance sink installed and print every recorded inline decision —
   optionally restricted to call sites in one method, or to one call-site
   pc. *)
let explain_one () target cfg query =
  match load target with
  | Error code -> code
  | Ok (label, program) -> (
      let obs =
        { Acsi_obs.Control.off with Acsi_obs.Control.provenance = true }
      in
      let result = Runtime.run (with_obs cfg obs) program in
      let prov = Option.get (Acsi_aos.System.provenance result.Runtime.sys) in
      let name = qualified_name program in
      match select_decisions program prov query with
      | Error code -> code
      | Ok decisions ->
          let decisions =
            List.sort
              (fun (a : Acsi_obs.Provenance.decision) b ->
                compare a.Acsi_obs.Provenance.d_seq b.Acsi_obs.Provenance.d_seq)
              decisions
          in
          let inlined, refused = Acsi_obs.Provenance.outcome_counts prov in
          Format.printf "%s under %s:@.@." label (policy_name cfg);
          if decisions = [] then
            Format.printf "no recorded inline decisions match@."
          else
            List.iter
              (Format.printf "%a@." (Acsi_obs.Provenance.pp_decision ~name))
              decisions;
          Format.printf "@.%d decisions shown of %d recorded (%d inlined, %d \
                         refused)@."
            (List.length decisions)
            (Acsi_obs.Provenance.count prov)
            inlined refused;
          let sampled, static, speculative =
            Acsi_obs.Provenance.source_counts prov
          in
          if static > 0 then
            Format.printf
              "%d decided by the static oracle (before any sample), %d \
               sample-driven@."
              static sampled;
          if speculative > 0 then
            Format.printf
              "%d decided speculatively (guard-free, loaded-CHA + \
               pre-existence)@."
              speculative;
          (* The orthogonal decision axis: what happened when each
             installed optimized method was promoted to (or kept off) the
             closure execution tier. Only shown for whole-program queries —
             tier decisions are per-method, not per-call-site. *)
          if query = None && Acsi_obs.Provenance.tier_count prov > 0 then begin
            Format.printf "@.Execution-tier decisions:@.";
            List.iter
              (Format.printf "%a@."
                 (Acsi_obs.Provenance.pp_tier_decision ~name))
              (Acsi_obs.Provenance.tier_all prov);
            let compiled, rejected, fell_back =
              Acsi_obs.Provenance.tier_outcome_counts prov
            in
            Format.printf
              "%d tier decisions (%d compiled, %d rejected, %d fell back)@."
              (Acsi_obs.Provenance.tier_count prov)
              compiled rejected fell_back
          end;
          0)

(* `acsi-run profile`: deterministic DCG persistence. --dump writes the
   run's final dynamic call graph in the textual {!Acsi_profile.Persist}
   format; --load seeds a run from a previously dumped profile,
   reproducing the offline profile-directed setups the paper contrasts
   itself with (§6). Profiles are program-specific (dense method ids),
   so dump and load must name the same benchmark and scale. *)
let profile_one () target cfg dump load_path =
  match load target with
  | Error code -> code
  | Ok (label, program) -> (
      match
        match load_path with
        | None -> Ok None
        | Some path -> (
            try Ok (Some (Acsi_profile.Persist.load path)) with
            | Acsi_profile.Persist.Malformed msg ->
                Error (Printf.sprintf "%s: malformed profile: %s" path msg)
            | Sys_error msg -> Error msg)
      with
      | Error msg ->
          Format.eprintf "%s@." msg;
          1
      | Ok profile ->
          let result = Runtime.run ?profile cfg program in
          Format.printf "%s under %s:@.%a@." label (policy_name cfg) Metrics.pp
            result.Runtime.metrics;
          Option.iter (Format.printf "profile seeded from %s@.") load_path;
          Option.iter
            (fun path ->
              let dcg = Acsi_aos.System.dcg result.Runtime.sys in
              Acsi_profile.Persist.save path dcg;
              Format.printf "profile (%d traces) written to %s@."
                (Acsi_profile.Dcg.size dcg) path)
            dump;
          0)

(* --- lint / analyze: static passes over whole programs --- *)

(* The given .acsi files, or every built-in workload when none is given,
   as (label, build) pairs. *)
let programs files =
  match files with
  | [] ->
      List.map
        (fun (s : Workloads.spec) ->
          (s.Workloads.name, fun () -> s.build ~scale:s.default_scale))
        Workloads.all
  | files ->
      List.map
        (fun path ->
          (path, fun () -> Acsi_lang.Parser.compile (read_file path)))
        files

(* `acsi-run lint [FILES]`: typed verification plus dead-code and
   unused-local lints. *)
let lint_targets files =
  let findings = ref 0 and targets = ref 0 and notes = ref 0 in
  let ok = ref true in
  List.iter
    (fun (label, build) ->
      match build () with
      | exception Acsi_bytecode.Verify.Error msg ->
          ok := false;
          Format.printf "%s: %s@." label msg
      | program ->
          incr targets;
          List.iter
            (fun d ->
              incr findings;
              Format.printf "%s: %s@." label (Acsi_analysis.Diag.to_string d))
            (Acsi_analysis.Lint.program program);
          (* Summary-backed advisory notes: printed, never fatal — a
             monomorphic dispatch or a discarded pure result is legitimate
             code, just provably dead weight. *)
          List.iter
            (fun d ->
              incr notes;
              Format.printf "%s: note: %s@." label
                (Acsi_analysis.Diag.to_string d))
            (Acsi_analysis.Lint.program_notes program))
    (programs files);
  if !findings = 0 && !ok then begin
    Format.printf "lint: %d target%s clean%s@." !targets
      (if !targets = 1 then "" else "s")
      (if !notes > 0 then Printf.sprintf " (%d advisory notes)" !notes else "");
    0
  end
  else 1

(* `acsi-run analyze [FILES]`: the compositional interprocedural summary
   pass ({!Acsi_analysis.Summary}). Pure static analysis — nothing
   executes; each table is a deterministic function of its program, so
   --jobs changes wall time only, never output. *)
let analyze_targets () jobs files =
  let render (label, build) =
    match build () with
    | exception Acsi_bytecode.Verify.Error msg ->
        Error (Printf.sprintf "%s: %s" label msg)
    | program ->
        let table = Acsi_analysis.Summary.analyze program in
        Ok
          (Format.asprintf "%s:@.%a" label
             (fun fmt () -> Acsi_analysis.Summary.print fmt program table)
             ())
  in
  (* Tables render to strings inside the pool; printing stays on the
     calling domain in input order, so the output is identical for every
     --jobs value. *)
  let rendered = Parallel.map ~jobs render (programs files) in
  List.iteri
    (fun i r ->
      match r with
      | Ok text ->
          if i > 0 then Format.printf "@.";
          Format.printf "%s%!" text
      | Error msg -> Format.eprintf "%s@." msg)
    rendered;
  if List.for_all Result.is_ok rendered then 0 else 1

let files_arg verb =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Mini-language programs (.acsi) to %s; every built-in workload \
              when omitted."
             verb))

(* --- serve / metrics: server modes --- *)

(* The request load of a serve cell, single-VM or sharded. *)
type traffic = {
  requests : int;
  clients : int;
  think : int;
  open_period : int option;
  quantum : int;
  switch_cost : int;
  seed : int;
  shards : int;
  pool : int;
  pool_policy : Acsi_aos.System.compile_queue_policy;
  barrier : int;
  jobs : int;
}

let traffic ~shards_default ~shards_doc =
  let int_opt names default doc =
    Arg.(value & opt int default & info names ~doc)
  in
  let pool_policy =
    Arg.conv
      ( (fun s ->
          match Acsi_aos.System.queue_policy_of_string s with
          | Some p -> Ok p
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown pool policy %S (fifo|hot|deadline)"
                     s))),
        fun fmt p ->
          Format.pp_print_string fmt (Acsi_aos.System.queue_policy_name p) )
  in
  Term.(
    const
      (fun requests clients think open_period quantum switch_cost seed shards
           pool pool_policy barrier jobs ->
        { requests; clients; think; open_period; quantum; switch_cost; seed;
          shards; pool; pool_policy; barrier; jobs })
    $ int_opt [ "requests" ] 8
        "Requests per client (closed loop) or total requests (open loop)."
    $ int_opt [ "clients" ] 4 "Concurrent clients (closed loop)."
    $ int_opt [ "think" ] 50_000
        "Client think time in cycles between requests (closed loop)."
    $ Arg.(
        value
        & opt (some int) None
        & info [ "open" ] ~docv:"PERIOD"
            ~doc:
              "Use an open-loop arrival schedule with the given mean \
               inter-arrival period in cycles instead of the closed loop.")
    $ int_opt [ "quantum" ] 25_000 "Scheduler quantum in cycles."
    $ int_opt [ "switch-cost" ] 200 "Context-switch cost in cycles."
    $ int_opt [ "seed" ] 1 "Seed for the open-loop arrival schedule."
    $ int_opt [ "shards" ] shards_default shards_doc
    $ int_opt [ "pool" ] 1
        "Background compiler threads per shard (sharded mode)."
    $ Arg.(
        value
        & opt pool_policy Acsi_aos.System.Fifo
        & info [ "pool-policy" ]
            ~doc:"Compiler-pool queue policy: fifo, hot or deadline.")
    $ int_opt [ "barrier" ] 2_000_000
        "Virtual cycles between cross-shard barriers (DCG merge, code \
         publication, work stealing)."
    $ jobs_arg [ "jobs" ]
        "Host domains running shards in parallel within a round (sharded \
         mode); never affects results.")

(* Sharded serving: N virtual processors with work stealing, a
   publish-once code cache and per-shard compiler pools. [requests] is
   the total session count; arrivals are always open-loop (default
   period 2400). *)
let run_shards t ~name cfg program =
  Shards.run ~quantum:t.quantum ~switch_cost:t.switch_cost ~seed:t.seed
    ~jobs:t.jobs ~barrier:t.barrier ~pool:t.pool ~pool_policy:t.pool_policy
    ~shards:t.shards ~sessions:t.requests
    ~period:(Option.value t.open_period ~default:2400)
    ~name cfg program

let run_server t ?async_compile ?telemetry_interval ~name cfg program =
  let mode =
    match t.open_period with
    | Some period -> Server.Open { period; requests = t.requests }
    | None ->
        Server.Closed
          {
            clients = t.clients;
            requests_per_client = t.requests;
            think = t.think;
          }
  in
  Server.run ~quantum:t.quantum ~switch_cost:t.switch_cost ~seed:t.seed
    ?async_compile ?telemetry_interval ~mode ~name cfg program

(* The server modes have never run guard-free speculation with shared
   code adoption, so --speculate is a usage error there. *)
let serve_config =
  Term.(
    ret
      (const (fun (cfg : Config.t) ->
           if cfg.Config.aos.Acsi_aos.System.speculate then
             `Error (true, "--speculate is not supported in server modes")
           else `Ok cfg)
      $ config))

(* `acsi-run serve`: server-mode execution — each benchmark's requests
   run as virtual threads over one shared VM/AOS instance (or, with
   --shards, across sharded virtual processors), with background
   compilation, and the summary reports throughput and latency
   percentiles. Deterministic: identical invocations print identical
   summaries. *)
let serve () benches scale cfg t sync_compile show_windows =
  let names = List.filter (( <> ) "") benches in
  let specs = List.filter_map find_bench names in
  if List.length specs < List.length names then 2
  else begin
    List.iteri
      (fun i spec ->
        let name = spec.Workloads.name and _, program = build spec scale in
        if i > 0 then Format.printf "@.";
        if t.shards > 0 then begin
          let r = run_shards t ~name cfg program in
          Format.printf "%a@." Shards.pp_summary r.Shards.summary;
          if show_windows then
            Format.printf "%a@." Shards.pp_shards r.Shards.shard_stats
        end
        else begin
          let r =
            run_server t ~async_compile:(not sync_compile) ~name cfg program
          in
          Format.printf "%a@." Server.pp_summary r.Server.summary;
          if show_windows then
            Format.printf "%a@." Server.pp_windows r.Server.windows
        end)
      specs;
    0
  end

(* `acsi-run metrics`: run one serve cell with fleet telemetry and print
   the virtual-clock time-series plus the latency / compile-wait /
   deopt-gap histograms as OpenMetrics (default) or JSONL text.
   Telemetry reads the virtual clock but never charges it, and sharded
   runs emit it only in the serial barrier section, so the export is
   byte-identical across --jobs and never perturbs the run it observes. *)
let metrics () bench scale cfg t interval openmetrics flows_out =
  let module Export = Acsi_obs.Export in
  if flows_out <> None && t.shards <= 0 then begin
    Format.eprintf "--flows needs --shards (flow arrows link shards)@.";
    2
  end
  else
    match find_bench bench with
    | None -> 2
    | Some spec ->
        let name = spec.Workloads.name and _, program = build spec scale in
        let labels = [ ("bench", name) ] in
        let buf = Buffer.create 4096 in
        let series labels kind s =
          if openmetrics then
            Export.series_openmetrics buf ~prefix:"acsi_" ~labels s
          else Export.series_jsonl buf ~name:kind ~labels s
        in
        let hist name h =
          if openmetrics then
            Export.hist_openmetrics buf ~name:("acsi_" ^ name) ~labels h
          else Export.hist_jsonl buf ~name ~labels h
        in
        (if t.shards > 0 then begin
           let tel = (run_shards t ~name cfg program).Shards.telemetry in
           Array.iteri
             (fun i s ->
               series (labels @ [ ("shard", string_of_int i) ]) "shard" s)
             tel.Shards.tel_series;
           hist "session_latency" tel.Shards.tel_latency_all;
           hist "steal_distance" tel.Shards.tel_steal_distance;
           hist "compile_wait" tel.Shards.tel_compile_wait;
           hist "deopt_gap" tel.Shards.tel_deopt_gap;
           Option.iter
             (fun path ->
               let fbuf = Buffer.create 4096 in
               Export.to_chrome_json fbuf (Shards.telemetry_tracer tel);
               write_buffer path fbuf;
               Format.eprintf "metrics: wrote flow trace to %s@." path)
             flows_out
         end
         else
           let tel =
             (run_server t ?telemetry_interval:interval ~name cfg program)
               .Server.telemetry
           in
           series labels "server" tel.Server.tl_series;
           hist "request_latency" tel.Server.tl_latency;
           hist "compile_wait" tel.Server.tl_compile_wait;
           hist "deopt_gap" tel.Server.tl_deopt_gap);
        if openmetrics then Buffer.add_string buf "# EOF\n";
        print_string (Buffer.contents buf);
        0

(* --- the command line --- *)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default:run_term
          (Cmd.info "acsi-run"
             ~doc:
               "run an adaptive-context-sensitive-inlining experiment on one \
                benchmark")
          [
            cmd "analyze"
              "print the compositional interprocedural summary table (size \
               after inlining, effects, escapes, constness, always-throws, \
               CHA monomorphic-dispatch proofs) for programs, without \
               executing them"
              Term.(
                const analyze_targets $ logs
                $ jobs_arg [ "j"; "jobs" ] "Domains to analyze programs on."
                $ files_arg "analyze");
            cmd "lint"
              "typed verification, dead-code and unused-local lints over \
               programs"
              Term.(const lint_targets $ files_arg "lint");
            cmd "serve"
              "serve a deterministic request workload over one shared VM and \
               adaptive system, reporting throughput and latency percentiles"
              Term.(
                const serve $ logs
                $ Arg.(
                    value
                    & opt (list string) [ "db"; "jess"; "compress" ]
                    & info [ "b"; "bench" ]
                        ~doc:"Comma-separated benchmark names to serve.")
                $ scale_arg $ serve_config
                $ traffic ~shards_default:0
                    ~shards_doc:
                      "Serve across N sharded virtual processors (per-shard \
                       run queues, deterministic work stealing, publish-once \
                       code cache). 0 (default) keeps the single-VM server. \
                       With shards, --requests is the total session count \
                       and arrivals are always open-loop."
                $ Arg.(
                    value & flag
                    & info [ "sync-compile" ]
                        ~doc:
                          "Compile synchronously at the sample that requested \
                           it instead of on the background compiler thread.")
                $ Arg.(
                    value & flag
                    & info [ "windows" ]
                        ~doc:
                          "Also print the per-window warmup curve (or, with \
                           --shards, the per-shard breakdown)."));
            cmd "metrics"
              "serve one benchmark with fleet telemetry and export the \
               virtual-clock time-series and latency histograms as \
               OpenMetrics or JSONL (deterministic: byte-identical across \
               --jobs)"
              Term.(
                const metrics $ logs
                $ Arg.(
                    value & opt string "session"
                    & info [ "b"; "bench" ]
                        ~doc:"Benchmark to serve while collecting telemetry.")
                $ scale_arg $ serve_config
                $ traffic ~shards_default:2
                    ~shards_doc:
                      "Virtual processors for the sharded server; 0 collects \
                       single-VM server telemetry instead."
                $ Arg.(
                    value
                    & opt (some int) None
                    & info [ "interval" ] ~docv:"CYCLES"
                        ~doc:
                          "Time-series sampling interval in virtual cycles \
                           (single-VM mode; the sharded server always samples \
                           at round barriers).")
                $ Arg.(
                    value
                    & opt (enum [ ("openmetrics", true); ("jsonl", false) ])
                        true
                    & info [ "format" ]
                        ~doc:"Output format: openmetrics or jsonl.")
                $ Arg.(
                    value
                    & opt (some string) None
                    & info [ "flows" ] ~docv:"FILE"
                        ~doc:
                          "Also write the cross-shard flow trace \
                           (steal/adopt/deopt arrows between shard tracks) as \
                           Chrome trace-event JSON for Perfetto (sharded \
                           mode)."));
            cmd "trace"
              "run one workload with structured tracing on and export a \
               Perfetto-loadable trace plus the per-component overhead \
               breakdown"
              Term.(
                const trace_one $ logs $ target $ config
                $ Arg.(
                    value & opt string "trace.json"
                    & info [ "o"; "out" ]
                        ~doc:
                          "Chrome trace-event output file \
                           (Perfetto-loadable).")
                $ Arg.(
                    value
                    & opt (some string) None
                    & info [ "jsonl" ] ~docv:"FILE"
                        ~doc:
                          "Also write the event stream as line-per-event \
                           JSON.")
                $ Arg.(
                    value & flag
                    & info [ "flame" ]
                        ~doc:
                          "Also print the CCT-derived virtual-cycle profile as \
                           a text flamegraph.")
                $ Arg.(
                    value & opt float 1.0
                    & info [ "min-pct" ]
                        ~doc:
                          "Prune flamegraph subtrees below this percent of the \
                           profile total.")
                $ Arg.(
                    value
                    & opt int (1 lsl 20)
                    & info [ "capacity" ]
                        ~doc:
                          "Tracer ring capacity in events; drops (oldest \
                           first) void the reconciliation check.")
                $ Arg.(
                    value & flag
                    & info [ "probe-on-clock" ]
                        ~doc:
                          "Charge the cost model's per-event probe cost to \
                           the virtual clock, making the tracing overhead \
                           itself visible to the run."));
            cmd "explain"
              "run one workload with decision provenance on and print why the \
               oracle inlined (or refused) each context-sensitive candidate"
              Term.(
                const explain_one $ logs $ target $ config
                $ Arg.(
                    value
                    & pos 0 (some string) None
                    & info [] ~docv:"METHOD[:PC]"
                        ~doc:
                          "Restrict to decisions whose innermost context entry \
                           is a call site in this method (unqualified or \
                           Cls.name), optionally at exactly the given bytecode \
                           pc. All decisions when omitted."));
            cmd "profile"
              "run one workload and persist its dynamic call graph, or seed a \
               run from a dumped profile (deterministic text format)"
              Term.(
                const profile_one $ logs $ target $ config
                $ Arg.(
                    value
                    & opt (some string) None
                    & info [ "dump" ] ~docv:"FILE"
                        ~doc:
                          "Write the run's final dynamic call graph to \
                           FILE.")
                $ Arg.(
                    value
                    & opt (some file) None
                    & info [ "load" ] ~docv:"FILE"
                        ~doc:
                          "Seed the dynamic call graph from FILE before the \
                           run (offline profile-directed inlining)."));
          ]))
