(* The repository benchmark (see README.md).

     main.exe --workload paper-sweep|serve-mix|fleet --seed N --seconds S
              --trace 0|1
     main.exe --self-test [--seed N]

   An untraced run (--trace 0) sets the workload up several times, then
   repeats passes of its fixed work for S seconds and prints the
   end-to-end metrics. A traced run (--trace 1) alternates untraced and
   traced passes, prints the per-layer metrics and writes its spans to
   .perfbench/. The last line of stdout is one JSON object; progress goes
   to stderr. Exit codes: 1 an operation or the set-up failed, 2 a
   virtual-clock figure did not repeat, 3 the trace did not reconcile,
   4 bad arguments. *)

let workloads : (string * (module Pass.WORKLOAD)) list =
  [
    (Paper_sweep.name, (module Paper_sweep));
    (Serve_mix.name, (module Serve_mix));
    (Fleet.name, (module Fleet));
  ]

(* Set-up runs twice per run, before and after the measured phase, each
   time at least this often and for at least this long; [setup_s] is the
   median over both. Host speed drifts within seconds, so set-ups timed
   at both ends of the run agree better from run to run than set-ups
   timed back to back, and a set-up of milliseconds still gets a steady
   median. *)
let setup_min_reps = 2
let setup_min_s = 0.5
let setup_max_reps = 100

let now = Pass.now

(* The last set-up's result and, for every repetition, its time in
   seconds of a host on which the reference kernel takes
   {!Reference.nominal_s}: its time over the mean of the kernel runs just
   before and just after it, times that. Like [host_time], this holds
   still while the host's speed moves; in seconds, the median set-up of
   ten runs moved by 40-65% between two sets of runs an hour apart. *)
let setup_repeated setup =
  let rec go reps spent before times =
    let t0 = now () in
    let prepared = setup () in
    let dt = now () -. t0 in
    let after = Reference.time () in
    let times = (Reference.nominal_s *. dt /. ((before +. after) /. 2.0)) :: times in
    let reps = reps + 1 and spent = spent +. dt in
    if
      reps >= setup_max_reps
      || (reps >= setup_min_reps && spent >= setup_min_s)
    then (prepared, times)
    else go reps spent after times
  in
  go 0 0.0 (Reference.time ()) []

(* A pass with, when traced, its raw per-layer numbers ({!Layers.raw}
   plus span self times and allocation by span name), and the peak heap
   so far. *)
type measured = {
  pass : Pass.t;
  traced : bool;
  raw : (string * float) list;
  heap_mb : float;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let measure_pass pass_fn ~traced =
  Gc.full_major ();
  Hashtbl.reset Layers.raw;
  Span.enabled := traced;
  let mark = Span.mark () in
  let t0 = now () in
  let pass = Span.with_ "pass" (fun () -> pass_fn ~traced) in
  let dt = now () -. t0 in
  if traced then
    Layers.probe_parallel_map ~jobs:(Acsi_core.Parallel.available_cores ()) ~n:101;
  Span.enabled := false;
  let raw =
    if not traced then []
    else
      let counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Layers.raw [] in
      Hashtbl.fold
        (fun name (self_s, words) acc ->
          ("span_s:" ^ name, self_s) :: ("span_w:" ^ name, words) :: acc)
        (Span.self_totals (Span.since mark))
        counts
  in
  ({ pass; traced; raw; heap_mb = peak_heap_mb () }, dt)

(* Passes until [until] (wall clock), at least [min] of them; pass [i] is
   traced when [traced i]. A pass is started only if the median pass so
   far still fits. *)
let passes pass_fn ~traced ~until ~min =
  let rec go i acc durations =
    if i >= min && now () +. Stats.median durations > until then List.rev acc
    else
      let m, dt = measure_pass pass_fn ~traced:(traced i) in
      go (i + 1) (m :: acc) (dt :: durations)
  in
  go 0 [] []

let op_sum (p : Pass.t) =
  Array.fold_left (fun acc t -> acc +. t.Pass.op_s) 0.0 p.Pass.ops

(* Sum over operations of the median over passes of [f timing]. *)
let per_op_median f (ps : Pass.t list) =
  let ops = Array.length (List.hd ps).Pass.ops in
  let total = ref 0.0 in
  for i = 0 to ops - 1 do
    total := !total +. Stats.median (List.map (fun p -> f p.Pass.ops.(i)) ps)
  done;
  !total

(* Host time of one pass of the fixed work, in runs of the reference
   kernel: per operation, the median over the run's passes of its time
   over the kernel's time around it, summed. The host's speed moves by a
   third between stretches of seconds, and one whole run can fall in a
   slow stretch; the kernel slows down with the operation timed next to
   it. In ten runs per workload on a shared 2-core host, the spread of
   this sum was 2-3.4%, against 12-30% for the median pass in seconds
   in the same runs. *)
let host_time ps = per_op_median (fun t -> t.Pass.op_s /. t.Pass.ref_s) ps

(* Every pass must reproduce the first pass's virtual figures. *)
let check_repeats name (ps : Pass.t list) =
  match ps with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i p ->
          if p.Pass.witness <> first.Pass.witness then
            raise
              (Pass.Nondeterministic
                 (Printf.sprintf "%s: pass %d differs from pass 1 in virtual cycles"
                    name (i + 2))))
        rest

let end_to_end ~setup_s ~peak_heap_mb (ps : Pass.t list) =
  let first = List.hd ps in
  let attempted = List.fold_left (fun a p -> a + p.Pass.attempted) 0 ps in
  let failed = List.fold_left (fun a p -> a + p.Pass.failed) 0 ps in
  let virt k =
    Option.value (List.assoc_opt k first.Pass.virt) ~default:0.0
  in
  [
    ("host_time", "ref", host_time ps);
    ("setup_s", "s", setup_s);
    ("peak_heap_mb", "MB", peak_heap_mb);
    ( "ok_fraction",
      "ratio",
      1.0 -. Stats.ratio (float_of_int failed) (float_of_int attempted) );
    ("cycles_geomean", "cycles", virt "cycles_geomean");
    ("opt_code_bytes_geomean", "bytes", virt "opt_code_bytes_geomean");
    ("requests_per_mcycle", "1/Mcycle", virt "requests_per_mcycle");
    ("p50_cycles", "cycles", virt "p50_cycles");
    ("p99_cycles", "cycles", virt "p99_cycles");
    ("capacity_spmc", "1/Mcycle", virt "capacity_spmc");
  ]

let per_layer ~untraced ~traced =
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun t -> List.map fst t.raw) traced)
  in
  let medians =
    List.map
      (fun k ->
        ( k,
          Stats.median
            (List.map
               (fun t -> Option.value (List.assoc_opt k t.raw) ~default:0.0)
               traced) ))
      keys
  in
  let g k = Option.value (List.assoc_opt k medians) ~default:0.0 in
  let span layer_call = g ("span_s:" ^ layer_call) in
  let mwords layer =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:("span_w:" ^ layer ^ ".") k then acc +. v
        else acc)
      0.0 medians
    /. 1e6
  in
  let ns_per_cycle bucket =
    Stats.ratio (g ("cal." ^ bucket ^ "_s") *. 1e9) (g ("cal." ^ bucket ^ "_cycles"))
  in
  let rounds = g "shards.rounds" in
  [
    ("host.wall_s", "s", per_op_median (fun t -> t.Pass.op_s) untraced);
    ( "host.ref_ms",
      "ms",
      1e3 *. Stats.median
        (List.concat_map
           (fun p -> Array.to_list (Array.map (fun t -> t.Pass.ref_s) p.Pass.ops))
           untraced) );
    ("vm.closure_s", "s", g "cal.closure_s");
    ("vm.interp_s", "s", g "cal.interp_s");
    ("vm.closure_ns_per_cycle", "ns/cycle", ns_per_cycle "closure");
    ("vm.tier_compile_s", "s", span "vm.tier_compile");
    ("vm.instructions", "count", g "vm.instructions");
    ("vm.calls", "count", g "vm.calls");
    ( "vm.guard_miss_ratio",
      "ratio",
      Stats.ratio (g "vm.guard_misses") (g "vm.guard_hits" +. g "vm.guard_misses") );
    ("vm.minor_mwords", "Mwords", mwords "vm");
    ("aos.system_s", "s", g "cal.system_s");
    ("aos.system_ns_per_cycle", "ns/cycle", ns_per_cycle "system");
    ("aos.listeners_cycles", "cycles", g "aos.listeners_cycles");
    ("aos.compilation_cycles", "cycles", g "aos.compilation_cycles");
    ("aos.decay_cycles", "cycles", g "aos.decay_cycles");
    ("aos.ai_cycles", "cycles", g "aos.ai_cycles");
    ("aos.method_org_cycles", "cycles", g "aos.method_org_cycles");
    ("aos.controller_cycles", "cycles", g "aos.controller_cycles");
    ("aos.overhead_share", "ratio", Stats.ratio (g "aos.cycles") (g "total.cycles"));
    ("aos.method_samples", "count", g "aos.method_samples");
    ("aos.trace_samples", "count", g "aos.trace_samples");
    ("jit.expand_s", "s", span "jit.expand");
    ("jit.inlines", "count", g "jit.inlines");
    ("jit.guard_sites", "count", g "jit.guard_sites");
    ( "jit.installed_bytes_ratio",
      "ratio",
      Stats.ratio (g "jit.installed_bytes") (g "jit.cumulative_bytes") );
    ( "jit.compiles_per_method",
      "ratio",
      Stats.ratio (g "jit.compilations") (g "jit.opt_methods") );
    ("jit.minor_mwords", "Mwords", mwords "jit");
    ("analysis.jit_check_s", "s", span "analysis.jit_check");
    ("analysis.summary_s", "s", span "analysis.summary");
    ("analysis.jit_check_diags", "count", g "analysis.jit_check_diags");
    ("analysis.minor_mwords", "Mwords", mwords "analysis");
    ("profile.rules_build_s", "s", span "profile.rules_build");
    ("profile.flag_s", "s", span "profile.flag");
    ("profile.dcg_traces", "count", g "profile.dcg_traces");
    ("profile.rules", "count", g "profile.rules");
    ("profile.refusals", "count", g "profile.refusals");
    ("profile.minor_mwords", "Mwords", mwords "profile");
    ("server.run_s", "s", span "server.run");
    ("server.slices", "count", g "server.slices");
    ("server.switches", "count", g "server.switches");
    ("server.async_installs", "count", g "server.async_installs");
    ("server.overlap_instrs", "count", g "server.overlap_instrs");
    ("server.queue_high_water", "count", g "server.queue_high_water");
    ("server.minor_mwords", "Mwords", mwords "server");
    ("shards.run_s", "s", span "shards.run");
    ("shards.rounds", "count", rounds);
    ("shards.steals", "count", g "shards.steals");
    ("shards.adopted", "count", g "shards.adopted");
    ( "shards.adopt_ratio",
      "ratio",
      Stats.ratio (g "shards.adopted") (g "shards.compilations") );
    ("shards.fairness", "ratio", g "shards.fairness");
    ("shards.compile_wait_p99", "cycles", g "shards.compile_wait_p99");
    ("shards.minor_mwords", "Mwords", mwords "shards");
    ("parallel.map_us", "us", g "parallel.map_us");
    ("parallel.round_cost_s", "s", g "parallel.map_us" *. rounds /. 1e6);
    ("parallel.minor_mwords", "Mwords", mwords "parallel");
    ( "trace.overhead_s",
      "s",
      Stats.median (List.map (fun t -> op_sum t.pass) traced)
      -. Stats.median (List.map op_sum untraced) );
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let spans_path ~workload ~seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed)

let run workload ~seed ~seconds ~trace =
  let w = List.assoc workload workloads in
  let module W = (val w : Pass.WORKLOAD) in
  let prepared, setups_before = setup_repeated (fun () -> W.setup ~seed) in
  let pass_fn = W.pass prepared in
  Pass.log "[%s] seed %d: %s" W.name seed (W.describe prepared);
  let start = now () in
  (* A traced run alternates untraced and traced passes, so that both see
     the same host conditions and their difference is the tracing cost. *)
  let untraced, traced =
    List.partition
      (fun m -> not m.traced)
      (if trace then
         passes pass_fn ~traced:(fun i -> i mod 2 = 1) ~until:(start +. seconds) ~min:2
       else passes pass_fn ~traced:(fun _ -> false) ~until:(start +. seconds) ~min:1)
  in
  let all = List.map (fun t -> t.pass) (untraced @ traced) in
  check_repeats W.name all;
  W.post_check prepared;
  (* After the first pass: read at the end, the peak grew with the number
     of passes that fit, by 10% on serve-mix between a slow host and a
     fast one. *)
  let peak_heap_mb = (List.hd untraced).heap_mb in
  let _, setups_after = setup_repeated (fun () -> W.setup ~seed) in
  let setup_s = Stats.median (setups_before @ setups_after) in
  Pass.log "[%s] set-up %.3fs at reference speed (median of %d before and %d after the passes)"
    W.name setup_s (List.length setups_before) (List.length setups_after);
  let untraced = List.map (fun t -> t.pass) untraced in
  Pass.log "[%s] %d untraced and %d traced passes, %.1fs; operation time per pass: %s"
    W.name (List.length untraced) (List.length traced) (now () -. start)
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (op_sum p)) all));
  let attempted = List.fold_left (fun a p -> a + p.Pass.attempted) 0 all in
  let failed = List.fold_left (fun a p -> a + p.Pass.failed) 0 all in
  let metrics =
    if trace then begin
      let path = spans_path ~workload ~seed in
      Span.write_jsonl path;
      Pass.log "[%s] spans written to %s" W.name path;
      per_layer ~untraced ~traced
    end
    else end_to_end ~setup_s ~peak_heap_mb untraced
  in
  List.iter
    (fun (name, unit, v) -> Pass.log "  %-28s %16.6f %s" name v unit)
    metrics;
  report ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

(* The benchmark's own test: every workload on two seeds, the first one
   twice. Virtual figures must repeat exactly on the same seed, the
   fleet's must change with the seed (its arrival schedule is drawn from
   it), and a traced pass must leave them unchanged. *)
let self_test ~seed =
  List.iter
    (fun (name, w) ->
      let module W = (val w : Pass.WORKLOAD) in
      let one ?(traced = false) seed =
        let p = W.setup ~seed in
        let r = (fst (measure_pass (W.pass p) ~traced)).pass in
        if r.Pass.failed > 0 then
          failwith (Printf.sprintf "%s seed %d: %d failed" name seed r.Pass.failed);
        W.post_check p;
        (W.describe p, r)
      in
      let d1, a = one seed in
      let _, a' = one seed in
      let d2, b = one ~traced:true (seed + 1) in
      let _, b' = one (seed + 1) in
      if a.Pass.witness <> a'.Pass.witness || b.Pass.witness <> b'.Pass.witness
      then failwith (name ^ ": same seed, different virtual figures");
      let seeded = name <> Serve_mix.name in
      if seeded && (d1 = d2 || a.Pass.witness = b.Pass.witness) then
        failwith (name ^ ": a second seed ran the same schedule");
      Pass.log "[self-test] %s ok (seeds %d and %d)" name seed (seed + 1))
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME paper-sweep, serve-mix or fleet");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set test, " run every workload on two seeds");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let fail code fmt = Printf.ksprintf (fun m -> prerr_endline m; exit code) fmt in
  (try
     Arg.parse_argv Sys.argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Help m -> print_string m; exit 0
  | Arg.Bad m -> fail 4 "%s" m);
  try
    if !test then self_test ~seed:!seed
    else if not (List.mem_assoc !workload workloads) then
      fail 4 "unknown workload %S\n%s" !workload usage
    else if !trace <> 0 && !trace <> 1 then fail 4 "--trace takes 0 or 1"
    else run !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  with
  | Pass.Nondeterministic m -> fail 2 "refusing to report: %s" m
  | Layers.Trace_mismatch m -> fail 3 "trace does not reconcile: %s" m
  | Failure m when !test -> fail 1 "self-test failed: %s" m
  | e -> fail 1 "failed: %s" (Printexc.to_string e)
