(* paper-sweep: the paper's own evaluation as users of the reproduction
   run it. Ten programs at default scale, serially, under the default
   configuration; each runs under the context-insensitive baseline and a
   seeded draw of three of the 24 Policy.paper_sweep policies (the full
   250-cell sweep takes ~25 s of host time, longer than a run). The draw
   deals a seeded permutation of the 24 policies across the programs, so
   every seed runs every policy on at least one program. *)

open Acsi_core
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads
module Interp = Acsi_vm.Interp

let name = "paper-sweep"

(* The eight paper programs plus richards and dispatch (a class load
   inside the hot loop). *)
let programs =
  [ "compress"; "jess"; "db"; "javac"; "mpeg"; "mtrt"; "jack"; "jbb";
    "richards"; "dispatch" ]

let policies_per_program = 3

type input = {
  bench : string;
  program : Acsi_bytecode.Program.t;
  reference : int;  (** output checksum of the AOS-free run *)
}

type prepared = {
  inputs : input list;
  cells : (input * Policy.t) list;
}

let cfg = Config.default ~policy:Policy.Context_insensitive

(* Seeded Fisher-Yates over the sweep, with the server's PRNG. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let state = ref (Acsi_server.Load.next_rand (seed lxor 0x5eed)) in
  for i = Array.length a - 1 downto 1 do
    state := Acsi_server.Load.next_rand !state;
    let j = !state mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let setup ~seed =
  let inputs =
    List.map
      (fun bench ->
        let spec = Workloads.find bench in
        let program = spec.Workloads.build ~scale:spec.Workloads.default_scale in
        Acsi_bytecode.Verify.program program;
        let reference =
          Metrics.checksum (Interp.output (Runtime.run_no_aos cfg program))
        in
        (* First fill of the process-wide closure-tier baseline cache. *)
        ignore (Runtime.run cfg program);
        { bench; program; reference })
      programs
  in
  let drawn = shuffle ~seed Policy.paper_sweep in
  let cells =
    List.concat
      (List.mapi
         (fun i input ->
           (input, Policy.Context_insensitive)
           :: List.init policies_per_program (fun k ->
                  ( input,
                    drawn.(((i * policies_per_program) + k) mod Array.length drawn) )))
         inputs)
  in
  { inputs; cells }

let describe p =
  String.concat " "
    (List.map
       (fun (input, policy) -> input.bench ^ ":" ^ Policy.to_string policy)
       p.cells)

let pass p ~traced =
  if traced then List.iter (fun i -> Layers.summarize i.program) p.inputs;
  let results =
    List.map
      (fun (input, policy) ->
        Pass.run_program ~traced
          ~label:(Printf.sprintf "%s: %s under %s" name input.bench
                    (Policy.to_string policy))
          (Config.with_policy cfg policy) input.program ~reference:input.reference)
      p.cells
  in
  let ok = List.filter_map snd results in
  let run_cycles = List.map (fun m -> m.Metrics.total_cycles) ok in
  let cycles = List.map float_of_int run_cycles in
  let cells_per_mcycle =
    Stats.ratio (float_of_int (List.length ok) *. 1e6) (List.fold_left ( +. ) 0.0 cycles)
  in
  {
    Pass.ops = Array.of_list (List.map fst results);
    attempted = List.length results;
    failed = List.length results - List.length ok;
    witness = Pass.witness ok;
    virt =
      [
        ("cycles_geomean", Stats.geomean cycles);
        ( "opt_code_bytes_geomean",
          Stats.geomean
            (List.map (fun m -> float_of_int m.Metrics.opt_code_bytes) ok) );
        ("requests_per_mcycle", cells_per_mcycle);
        ("p50_cycles", Stats.percentile run_cycles 50.0);
        ("p99_cycles", Stats.percentile run_cycles 99.0);
        (* A serial sweep starts the next cell when the last completes, so
           its throughput is its capacity. *)
        ("capacity_spmc", cells_per_mcycle);
      ];
  }

let post_check _ = ()
