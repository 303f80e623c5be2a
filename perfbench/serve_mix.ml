(* serve-mix: the single-VM server. db, jess and compress are each served
   by Server.run to a closed loop of 4 clients that wait for every reply
   (callers that block on a reply make a closed loop), 85 requests per
   client at scale 1: 1020 requests in all, so the pooled p99 has ten
   samples beyond it. Compilation runs on the background compiler and
   overlaps the mutator, and the VM is entered through spawn/resume
   quanta instead of Runtime.run. A closed loop has no random input: the
   seed changes nothing here.

   Server.run keeps its VM and AOS to itself, so each program also runs
   once through Runtime.run at its default scale (at scale 1 a single run
   ends before anything is optimized) under the same configuration,
   background compilation included. That run gives the output check
   against the AOS-free reference and the optimized code size, and, in
   the traced pass, the VM/AOS/JIT layer numbers. *)

open Acsi_core
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads
module Server = Acsi_server.Server
module Interp = Acsi_vm.Interp

let name = "serve-mix"
let programs = [ "db"; "jess"; "compress" ]
let clients = 4
let requests_per_client = 85
let think = 50_000

type input = {
  bench : string;
  served : Acsi_bytecode.Program.t;  (** scale 1: one request *)
  single : Acsi_bytecode.Program.t;  (** default scale *)
  reference : int;  (** output checksum of [single] without the AOS *)
}

type prepared = input list

let cfg =
  let c = Config.default ~policy:(Policy.Fixed 3) in
  { c with Config.aos = { c.Config.aos with Acsi_aos.System.async_compile = true } }

let setup ~seed:_ =
  List.map
    (fun bench ->
      let spec = Workloads.find bench in
      let served = spec.Workloads.build ~scale:1 in
      let single = spec.Workloads.build ~scale:spec.Workloads.default_scale in
      Acsi_bytecode.Verify.program served;
      Acsi_bytecode.Verify.program single;
      let reference =
        Metrics.checksum (Interp.output (Runtime.run_no_aos cfg single))
      in
      ignore (Runtime.run cfg served);
      ignore (Runtime.run cfg single);
      { bench; served; single; reference })
    programs

let describe _ =
  Printf.sprintf "%s, closed loop %d clients x %d requests, think %d cycles"
    (String.concat "+" programs) clients requests_per_client think

(* Requests that never completed, or completed with an impossible
   record. *)
let incomplete (r : Server.result) =
  let n = clients * requests_per_client in
  let seen = Array.make n false in
  List.iter
    (fun (q : Server.request) ->
      if
        q.Server.r_id >= 0 && q.Server.r_id < n
        && q.Server.r_latency = q.Server.r_finish - q.Server.r_arrival
        && q.Server.r_latency > 0
      then seen.(q.Server.r_id) <- true)
    r.Server.requests;
  Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 seen

let pass inputs ~traced =
  if traced then List.iter (fun i -> Layers.summarize i.single) inputs;
  let n = clients * requests_per_client in
  let served =
    List.map
      (fun input ->
        let r, dt =
          Pass.timed (fun () ->
              Span.with_ "server.run" (fun () ->
                  Server.run
                    ~mode:(Server.Closed { clients; requests_per_client; think })
                    ~name:input.bench cfg input.served))
        in
        match r with
        | Error e ->
            Pass.log "[%s] serving %s raised %s" name input.bench e;
            (dt, n, None)
        | Ok r ->
            let s = r.Server.summary in
            if traced then begin
              Layers.addi "server.slices" s.Server.sv_slices;
              Layers.addi "server.switches" s.Server.sv_switches;
              Layers.addi "server.async_installs" s.Server.sv_async_installs;
              Layers.addi "server.overlap_instrs" s.Server.sv_overlap_instructions;
              Layers.set_max "server.queue_high_water"
                (float_of_int s.Server.sv_max_queue_depth)
            end;
            let missing = incomplete r in
            if missing > 0 then
              Pass.log "[%s] %s: %d of %d requests did not complete" name
                input.bench missing n;
            (dt, missing, Some r))
      inputs
  in
  let single =
    List.map
      (fun input ->
        Pass.run_program ~traced
          ~label:(Printf.sprintf "%s: single run of %s" name input.bench)
          cfg input.single ~reference:input.reference)
      inputs
  in
  let summaries =
    List.filter_map
      (fun (_, _, r) -> Option.map (fun r -> r.Server.summary) r)
      served
  in
  let latencies =
    List.concat_map
      (fun (_, _, r) ->
        match r with
        | None -> []
        | Some r -> List.map (fun q -> q.Server.r_latency) r.Server.requests)
      served
  in
  let ms = List.filter_map snd single in
  let server_cycles =
    List.map (fun s -> float_of_int s.Server.sv_total_cycles) summaries
  in
  let per_mcycle =
    Stats.ratio
      (float_of_int (List.length latencies) *. 1e6)
      (List.fold_left ( +. ) 0.0 server_cycles)
  in
  {
    Pass.ops =
      Array.of_list (List.map (fun (dt, _, _) -> dt) served @ List.map fst single);
    attempted = (n * List.length inputs) + List.length inputs;
    failed =
      List.fold_left (fun acc (_, missing, _) -> acc + missing) 0 served
      + (List.length inputs - List.length ms);
    witness = Pass.witness (summaries, latencies, ms);
    virt =
      [
        ("cycles_geomean", Stats.geomean server_cycles);
        ( "opt_code_bytes_geomean",
          Stats.geomean (List.map (fun m -> float_of_int m.Metrics.opt_code_bytes) ms) );
        ("requests_per_mcycle", per_mcycle);
        ("p50_cycles", Stats.percentile latencies 50.0);
        ("p99_cycles", Stats.percentile latencies 99.0);
        (* Closed-loop clients keep the server saturated: its throughput
           is its capacity. *)
        ("capacity_spmc", per_mcycle);
      ];
  }

let post_check _ = ()
