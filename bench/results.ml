(* Reading and writing BENCH_results.json: the machine-readable side
   channel of the bench driver. A results file holds a *trajectory* — a
   list of runs, one appended per invocation — so the wall-clock history
   of the repo is tracked in one committed file and [compare.exe] can
   diff any two points of it.

   A run is a header (jobs, scale, sweep wall time and one stamp per
   engine setting, see Acsi_settings.Settings) plus generic tables, one
   per section below. Each table column is a key (identifies a cell
   across runs), deterministic (held to the determinism contract by
   compare.exe) or informational (host time, or a figure compare.exe
   never checked). The parser is a minimal recursive-descent JSON reader
   covering exactly what the writer emits; a number with a fraction or
   exponent reads back as a float, any other as an int, so every file
   the writer produced re-writes byte for byte. *)

module Settings = Acsi_settings.Settings

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = fail "%s at offset %d" msg !pos in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    let fraction =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
    in
    match (fraction, int_of_string_opt text, float_of_string_opt text) with
    | false, Some i, _ -> Int i
    | _, _, Some f -> Float f
    | _, _, None -> fail "bad number"
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents buf
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad unicode escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?' (* the writer never emits these *)
              | None -> fail "bad unicode escape");
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  (* [items close item] parses "item, item, ... close" after the opener. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let v = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go (v :: acc)
        | Some c when c = close ->
            incr pos;
            List.rev (v :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = string_ () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | Some '[' ->
        incr pos;
        Arr (items ']' value)
    | Some '"' -> Str (string_ ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats print with six decimals, as every float the bench records. *)
let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\": %s" (json_escape k) (to_string v))
             kvs)
      ^ "}"

(* --- sections --- *)

type kind = Key | Det | Info

type section = {
  name : string;
  columns : (string * kind) list;
  across_stamps : bool;
      (* each cell embeds its own off/on halves, each run with an
         explicit setting, so the cells are comparable (and checked) even
         across the run's setting stamps *)
  one : bool; (* one JSON object rather than an array of cells *)
}

let section ?(across_stamps = false) ?(one = false) name columns =
  { name; columns; across_stamps; one }

(* Output checksums and histogram sums use the full 63-bit int range,
   beyond a float's 53 bits of exact precision, so they travel as JSON
   strings. Every section but "cells" is written only when the run
   recorded it. *)
let sections =
  [
    (* One cell of the main sweep. *)
    section "cells"
      [
        ("bench", Key); ("policy", Key); ("wall_s", Info);
        ("total_cycles", Det);
      ];
    (* One closed-loop server cell (Acsi_server.Server, bench --serve). *)
    section "server"
      [
        ("bench", Key); ("policy", Key); ("requests", Info);
        ("total_cycles", Det); ("throughput_rpmc", Info); ("p50", Det);
        ("p95", Det); ("p99", Det);
      ];
    (* One sharded-server cell (Acsi_server.Shards, bench --serve). *)
    section "shards"
      [
        ("bench", Key); ("policy", Key); ("shards", Key); ("pool", Key);
        ("pool_policy", Key); ("sessions", Key); ("period", Key);
        ("makespan", Det); ("throughput_spmc", Info); ("p50", Det);
        ("p95", Det); ("p99", Det); ("steals", Det); ("fairness", Info);
        ("published", Info); ("adopted", Info);
      ];
    (* One fleet-telemetry cell (Acsi_server.Shards.telemetry, bench
       --serve): histogram quantiles with exact count and sum, flow-arrow
       counts with the conservation verdict, deopts, and the folded
       per-shard series checksum. The SLO gate reads its budgets here. *)
    section "telemetry"
      [
        ("bench", Key); ("shards", Key); ("sessions", Key); ("interval", Key);
        ("hist_p50", Det); ("hist_p90", Det); ("hist_p99", Det);
        ("hist_count", Det); ("hist_sum", Det); ("compile_wait_p99", Det);
        ("deopt_gap_p99", Det); ("steal_flows", Det); ("adopt_flows", Det);
        ("flow_conserved", Det); ("deopts", Det); ("series_checksum", Det);
      ];
    (* The static-oracle warmup ablation (bench --serve): one closed-loop
       workload served with static_seed off, then on. *)
    section "static" ~across_stamps:true
      [
        ("bench", Key); ("policy", Key); ("requests", Info);
        ("warmup_off", Det); ("warmup_on", Det); ("steady_off", Info);
        ("steady_on", Info); ("checksum_off", Det); ("checksum_on", Det);
      ];
    (* The guards-vs-guard-free ablation (bench --deopt): one workload run
       with speculation off, then on. *)
    section "speculation" ~across_stamps:true
      [
        ("bench", Key); ("policy", Key); ("hits_off", Det); ("misses_off", Det);
        ("hits_on", Det); ("misses_on", Det); ("storms_on", Det);
        ("invalidated_on", Det); ("cycles_off", Info); ("cycles_on", Info);
        ("checksum_off", Det); ("checksum_on", Det);
      ];
    (* The traced per-component breakdown (bench --trace): component name
       -> cycles, in canonical Accounting order. *)
    section "components"
      [ ("bench", Key); ("policy", Key); ("components", Det) ];
    (* Host time per execution-tier bucket (bench --trace);
       ns-per-virtual-cycle is derived, not stored. *)
    section "calibration" [ ("tier", Key); ("cycles", Info); ("host_s", Info) ];
    (* The charge-constant sanity verdict (bench --trace): host ns per
       charged system cycle over the app tier's; "consistent" within
       [0.5, 2.0], "undercharged" above, "overcharged" below. *)
    section "calibration_check" ~one:true
      [
        ("app_ns", Info); ("system_ns", Info); ("ratio", Info);
        ("verdict", Info);
      ];
  ]

type row = (string * json) list

type run = {
  jobs : int;
  scale_factor : float;
  wall_total_s : float;
  settings : Settings.values;
  tables : (string * row list) list; (* the sections the run recorded *)
}

let rows run name = Option.value (List.assoc_opt name run.tables) ~default:[]
let get row column = Option.value (List.assoc_opt column row) ~default:Null
let num = function Int i -> float_of_int i | Float f -> f | _ -> 0.0
let int = function Int i -> i | _ -> 0
let str = function Str s -> s | v -> to_string v

(* --- reading --- *)

let field name = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> fail "missing field %S" name)
  | _ -> fail "expected an object for %S" name

let number name j =
  match field name j with
  | (Int _ | Float _) as v -> num v
  | _ -> fail "expected a number for %S" name

let row_of_json s = function
  | Obj kvs as j ->
      List.iter (fun (c, _) -> ignore (field c j)) s.columns;
      kvs
  | _ -> fail "expected an object under %S" s.name

(* A setting a run does not record reads as its default. *)
let run_of_json j =
  let member k = match j with Obj kvs -> List.assoc_opt k kvs | _ -> None in
  let setting (s : Settings.t) =
    match member s.key with
    | None -> (s, s.default)
    | Some v ->
        let text = to_string v in
        if text = snd s.json then (s, true)
        else if text = fst s.json then (s, false)
        else fail "bad value %s for %S" text s.key
  in
  let table s =
    match member s.name with
    | None | Some Null -> None
    | Some v when s.one -> Some (s.name, [ row_of_json s v ])
    | Some (Arr cells) -> Some (s.name, List.map (row_of_json s) cells)
    | Some _ -> fail "expected an array under %S" s.name
  in
  {
    jobs = int_of_float (number "jobs" j);
    scale_factor = number "scale_factor" j;
    wall_total_s = number "wall_total_s" j;
    settings = List.map setting Settings.all;
    tables = List.filter_map table sections;
  }

(* A trajectory file is {"runs": [...]}; a bare run object (the PR 1
   format) reads as a one-run trajectory. *)
let runs_of_json j =
  match j with
  | Obj kvs when List.mem_assoc "runs" kvs -> (
      match List.assoc "runs" kvs with
      | Arr runs -> List.map run_of_json runs
      | _ -> fail "expected an array under \"runs\"")
  | j -> [ run_of_json j ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  runs_of_json (parse contents)

(* --- writing --- *)

let output_run oc r ~last =
  Printf.fprintf oc
    "    {\n\
    \      \"jobs\": %d,\n\
    \      \"scale_factor\": %g,\n\
    \      \"wall_total_s\": %.6f"
    r.jobs r.scale_factor r.wall_total_s;
  List.iter
    (fun ((s : Settings.t), v) ->
      Printf.fprintf oc ",\n      \"%s\": %s" s.key (Settings.pick s.json v))
    r.settings;
  List.iter
    (fun s ->
      match List.assoc_opt s.name r.tables with
      | None -> ()
      | Some rows when s.one ->
          List.iter
            (fun row ->
              Printf.fprintf oc ",\n      \"%s\": %s" s.name
                (to_string (Obj row)))
            rows
      | Some rows ->
          Printf.fprintf oc ",\n      \"%s\": [\n" s.name;
          let last_row = List.length rows - 1 in
          List.iteri
            (fun i row ->
              Printf.fprintf oc "        %s%s\n" (to_string (Obj row))
                (if i = last_row then "" else ","))
            rows;
          Printf.fprintf oc "      ]")
    sections;
  Printf.fprintf oc "\n    }%s\n" (if last then "" else ",")

let write_file path runs =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"runs\": [\n";
  let last = List.length runs - 1 in
  List.iteri (fun i r -> output_run oc r ~last:(i = last)) runs;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc
