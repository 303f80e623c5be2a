(* Diff two BENCH_results.json files (or two runs of one trajectory
   file): per-cell wall-clock deltas, sorted by magnitude, plus the
   totals — one command to spot a performance regression after a change.

     compare.exe OLD.json NEW.json [--all] [--old-run N] [--new-run N]
                 [--allow-cross-config] [--slo KEY=BUDGET]...

   By default the *last* run of each file is compared (a results file is
   a trajectory; see results.ml). Wall-clock deltas are informational —
   the host is noisy — but at the same scale factor every deterministic
   column of a matched cell must agree: a mismatch means the simulated
   execution itself changed, which the determinism contract forbids, and
   exits 1.

   Runs are stamped with their engine settings (Acsi_settings.Settings).
   At equal scale, runs whose stamps differ are refused with exit 2: the
   diff would measure the setting, not the change under test.
   --allow-cross-config compares anyway. The determinism checks then still
   run when every differing setting is cycle-neutral (the execution tier)
   and are skipped otherwise, except in sections whose cells embed their
   own off/on halves, which are checked across stamps. *)

module Settings = Acsi_settings.Settings

(* SLO key -> the section and the columns summed per cell; the budget
   holds the maximum over the new run's cells. *)
let slos =
  [
    ("p99", ("telemetry", [ "hist_p99" ]));
    ("warmup", ("static", [ "warmup_on" ]));
    ("deopts", ("telemetry", [ "deopts" ]));
    ("guards", ("speculation", [ "hits_on"; "misses_on" ]));
  ]

let usage =
  "usage: compare.exe OLD.json NEW.json [--all] [--old-run N] [--new-run N] \
   [--allow-cross-config] [--slo KEY=BUDGET]...\n\
   SLO keys (checked against the NEW run, violation exits 1): p99 \
   (telemetry session-latency p99), warmup (static-ablation seeded warmup \
   requests), deopts (telemetry deopt count), guards (speculation guard \
   checks, on half)"

let die fmt = Format.kasprintf (fun m -> prerr_endline m; exit 2) fmt

type opts = {
  mutable files : string list;
  mutable all : bool;
  mutable old_run : int option; (* index into the trajectory; default last *)
  mutable new_run : int option;
  mutable allow_cross_config : bool;
  mutable slo : (string * int) list; (* declared budgets, argv order *)
}

let parse_args () =
  let o =
    { files = []; all = false; old_run = None; new_run = None;
      allow_cross_config = false; slo = [] }
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ -> die "invalid %s value %s@.%s" name v usage
  in
  let rec go = function
    | [] -> ()
    | "--all" :: rest ->
        o.all <- true;
        go rest
    | "--allow-cross-config" :: rest ->
        o.allow_cross_config <- true;
        go rest
    | "--old-run" :: v :: rest ->
        o.old_run <- Some (int_arg "--old-run" v);
        go rest
    | "--new-run" :: v :: rest ->
        o.new_run <- Some (int_arg "--new-run" v);
        go rest
    | "--slo" :: v :: rest ->
        (match String.index_opt v '=' with
        | Some i ->
            let key = String.sub v 0 i in
            let budget =
              int_arg "--slo" (String.sub v (i + 1) (String.length v - i - 1))
            in
            if not (List.mem_assoc key slos) then
              die "unknown SLO key %S@.%s" key usage;
            o.slo <- o.slo @ [ (key, budget) ]
        | None -> die "invalid --slo value %s (want KEY=BUDGET)@.%s" v usage);
        go rest
    | arg :: rest when List.length o.files < 2 ->
        o.files <- o.files @ [ arg ];
        go rest
    | arg :: _ -> die "unexpected argument %s@.%s" arg usage
  in
  go (List.tl (Array.to_list Sys.argv));
  match o.files with
  | [ a; b ] -> (o, a, b)
  | _ -> die "two results files required@.%s" usage

let load path idx =
  let runs =
    try Results.read_file path with
    | Sys_error msg -> die "%s" msg
    | Results.Parse_error msg -> die "%s: %s" path msg
  in
  let n = List.length runs in
  if n = 0 then die "%s: no runs" path;
  let i = match idx with Some i -> i | None -> n - 1 in
  if i >= n then die "%s: run %d requested but only %d recorded" path i n;
  (List.nth runs i, i, n)

let labels (r : Results.run) =
  String.concat "  "
    (List.map
       (fun ((s : Settings.t), v) -> Settings.pick s.labels v)
       r.settings)

let columns kind (s : Results.section) =
  List.filter_map (fun (c, k) -> if k = kind then Some c else None) s.columns

let key s row = List.map (Results.get row) (columns Results.Key s)

(* The determinism contract, one function for every section: each cell of
   the new run whose key matches an old cell must agree with it on every
   deterministic column. Returns the changed cells with the columns that
   moved. *)
let changed_cells (s : Results.section) old_run new_run =
  let old_rows = Results.rows old_run s.name in
  List.filter_map
    (fun n ->
      match List.find_opt (fun o -> key s o = key s n) old_rows with
      | None -> None
      | Some o -> (
          match
            List.filter
              (fun c -> Results.get o c <> Results.get n c)
              (columns Results.Det s)
          with
          | [] -> None
          | moved -> Some (o, n, moved)))
    (Results.rows new_run s.name)

let () =
  let o, old_path, new_path = parse_args () in
  let old_run, old_i, old_n = load old_path o.old_run in
  let new_run, new_i, new_n = load new_path o.new_run in
  List.iter
    (fun (tag, path, i, n, (r : Results.run)) ->
      Printf.printf
        "%s: %s (run %d/%d)  jobs %d  scale %g  %s  wall_total %.2fs\n" tag
        path i (n - 1) r.jobs r.scale_factor (labels r) r.wall_total_s)
    [
      ("old", old_path, old_i, old_n, old_run);
      ("new", new_path, new_i, new_n, new_run);
    ];
  let same_scale = old_run.scale_factor = new_run.scale_factor in
  if not same_scale then
    print_endline
      "note: scale factors differ — cycle counts are not comparable, only \
       reporting wall-clock";
  let differing =
    List.filter_map
      (fun (((s : Settings.t), a), (_, b)) ->
        if a = b then None
        else
          let label = Settings.pick s.labels in
          Some (s, label a ^ " vs " ^ label b))
      (List.combine old_run.settings new_run.settings)
  in
  if same_scale && differing <> [] && not o.allow_cross_config then
    die
      "refusing to compare runs with different settings at equal scale (%s): \
       the diff would measure the settings, not the change under test. Pass \
       --allow-cross-config to compare anyway (the determinism checks then \
       run only if every differing setting is cycle-neutral)."
      (String.concat ", " (List.map snd differing));
  let check_cycles =
    same_scale
    && List.for_all (fun ((s : Settings.t), _) -> s.cycle_neutral) differing
  in
  (* Cost-model drift: when both runs measured host time per charged
     virtual cycle, report how much each tier's measured cost moved.
     Informational only — the host is noisy — but a large drift means
     wall-clock comparisons against older trajectory points are suspect. *)
  let section name = (Results.rows old_run name, Results.rows new_run name) in
  (match section "calibration" with
  | [], _ | _, [] -> ()
  | old_cal, new_cal ->
      Printf.printf
        "\ncalibration drift (host ns per charged virtual cycle):\n";
      let ns row =
        let cycles = Results.int (Results.get row "cycles") in
        if cycles = 0 then 0.0
        else
          Results.num (Results.get row "host_s") *. 1e9 /. float_of_int cycles
      in
      let tier row = Results.str (Results.get row "tier") in
      List.iter
        (fun nk ->
          match List.find_opt (fun ok -> tier ok = tier nk) old_cal with
          | Some ok ->
              let o_ns = ns ok and n_ns = ns nk in
              Printf.printf "  %-8s %8.2f -> %8.2f ns/cycle (%+.1f%%)\n"
                (tier nk) o_ns n_ns
                (if o_ns > 0.0 then (n_ns -. o_ns) /. o_ns *. 100.0 else 0.0)
          | None ->
              Printf.printf "  %-8s (new)  %8.2f ns/cycle\n" (tier nk) (ns nk))
        new_cal);
  (* Charge-constant sanity verdicts (bench --trace): a verdict flip
     between runs means the measured host cost of a charged system cycle
     moved across the consistency band relative to app execution — the
     Cost constants (or the host) changed character. Informational, like
     all host-time figures, but worth a loud note. *)
  let verdict row = Results.str (Results.get row "verdict") in
  let ratio row = Results.num (Results.get row "ratio") in
  (match section "calibration_check" with
  | [], [] -> ()
  | [], n :: _ ->
      Printf.printf
        "\ncalibration check (new): ratio %.2f, verdict %s (no old verdict)\n"
        (ratio n) (verdict n)
  | o :: _, [] ->
      Printf.printf
        "\ncalibration check: old run had verdict %s, new run recorded none\n"
        (verdict o)
  | o :: _, n :: _ ->
      Printf.printf
        "\ncalibration check: ratio %.2f -> %.2f, verdict %s -> %s\n" (ratio o)
        (ratio n) (verdict o) (verdict n);
      if verdict o <> verdict n then
        Printf.printf
          "  WARNING: charge-constant verdict flipped (%s -> %s) — the \
           system charge constants have drifted relative to measured host \
           cost\n"
          (verdict o) (verdict n));
  (* The wall-clock table over the sweep cells, by (bench, policy). *)
  let cell row =
    let str c = Results.str (Results.get row c) in
    ((str "bench", str "policy"), Results.num (Results.get row "wall_s"))
  in
  let old_cells = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace old_cells (fst (cell c)) (snd (cell c)))
    (Results.rows old_run "cells");
  let matched = ref [] and added = ref [] in
  List.iter
    (fun c ->
      let k, wall = cell c in
      match Hashtbl.find_opt old_cells k with
      | None -> added := k :: !added
      | Some old_wall ->
          Hashtbl.remove old_cells k;
          matched := (k, old_wall, wall) :: !matched)
    (Results.rows new_run "cells");
  let removed = Hashtbl.fold (fun k _ acc -> k :: acc) old_cells [] in
  let deltas =
    List.map (fun (k, o, n) -> (k, o, n, n -. o)) !matched
    |> List.sort (fun (_, _, _, a) (_, _, _, b) ->
           Float.compare (Float.abs b) (Float.abs a))
  in
  let shown =
    if o.all then deltas else List.filteri (fun i _ -> i < 15) deltas
  in
  Printf.printf "\n%-10s %-22s %9s %9s %9s %8s\n" "bench" "policy" "old ms"
    "new ms" "delta ms" "delta %";
  List.iter
    (fun ((bench, policy), o, n, d) ->
      Printf.printf "%-10s %-22s %9.1f %9.1f %+9.1f %+7.1f%%\n" bench policy
        (o *. 1e3) (n *. 1e3) (d *. 1e3)
        (if o > 0.0 then d /. o *. 100.0 else 0.0))
    shown;
  if List.length deltas > List.length shown then
    Printf.printf "  ... %d more cells (--all to list)\n"
      (List.length deltas - List.length shown);
  let sum f =
    List.fold_left (fun acc (_, o, n, _) -> acc +. f o n) 0.0 deltas
  in
  let old_sum = sum (fun o _ -> o) and new_sum = sum (fun _ n -> n) in
  Printf.printf
    "\ntotals over %d matched cells: %.2fs -> %.2fs (%+.2fs, %+.1f%%)\n"
    (List.length deltas) old_sum new_sum (new_sum -. old_sum)
    (if old_sum > 0.0 then (new_sum -. old_sum) /. old_sum *. 100.0 else 0.0);
  List.iter
    (fun (bench, policy) ->
      Printf.printf "cell only in new run: %s/%s\n" bench policy)
    (List.rev !added);
  List.iter
    (fun (bench, policy) ->
      Printf.printf "cell only in old run: %s/%s\n" bench policy)
    removed;
  let violations =
    List.filter_map
      (fun (s : Results.section) ->
        if not (if s.across_stamps then same_scale else check_cycles) then None
        else
          match changed_cells s old_run new_run with
          | [] -> None
          | changed -> Some (s, changed))
      Results.sections
  in
  (* The SLO gate: declared budgets are checked against the NEW run's
     recorded sections — the same numbers the determinism checks hold
     byte-stable — so a budget can only regress when the simulated
     behaviour itself regressed. A declared budget with no recorded data
     is a violation too: a gate that silently passes because the section
     went missing is not a gate. *)
  let slo_violations =
    List.filter_map
      (fun (name, budget) ->
        let section, cols = List.assoc name slos in
        let measure row =
          List.fold_left
            (fun acc c -> acc + Results.int (Results.get row c))
            0 cols
        in
        match Results.rows new_run section with
        | [] -> Some (name, budget, None)
        | rows -> (
            match
              List.fold_left (fun acc r -> max acc (measure r)) min_int rows
            with
            | m when m > budget -> Some (name, budget, Some m)
            | m ->
                Printf.printf "SLO ok: %s %d within budget %d\n" name m budget;
                None))
      o.slo
  in
  List.iter
    (fun ((s : Results.section), changed) ->
      Printf.printf "\nDETERMINISM VIOLATION: %s changed on %d cells:\n" s.name
        (List.length changed);
      List.iter
        (fun (o, n, moved) ->
          Printf.printf "  %s: %s\n"
            (String.concat "/" (List.map Results.str (key s n)))
            (String.concat ", "
               (List.map
                  (fun c ->
                    Printf.sprintf "%s %s -> %s" c
                      (Results.to_string (Results.get o c))
                      (Results.to_string (Results.get n c)))
                  moved)))
        changed)
    violations;
  if slo_violations <> [] then begin
    Printf.printf "\nSLO VIOLATION on %d budgets:\n"
      (List.length slo_violations);
    List.iter
      (fun (key, budget, measured) ->
        match measured with
        | Some m ->
            Printf.printf "  %s: measured %d exceeds budget %d\n" key m budget
        | None ->
            Printf.printf
              "  %s: budget %d declared but the new run recorded no data for \
               it\n"
              key budget)
      slo_violations
  end;
  if violations <> [] || slo_violations <> [] then exit 1
