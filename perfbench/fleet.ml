(* fleet: Shards.run serving the session workload open loop (sessions
   are independent users, so they arrive on a schedule whether or not
   the fleet keeps up), on 4 virtual shards with a compiler pool of 2.
   The seed draws the arrival schedule. The only workload with barrier
   rounds, a Parallel.map per round, work stealing and publish-once code
   adoption; its sessions are short, so warmup is a large share of a
   run.

   Every pass runs the nominal rate and the whole capacity ladder, so the
   work is fixed whatever capacity comes out. *)

open Acsi_core
module Policy = Acsi_policy.Policy
module Workloads = Acsi_workloads.Workloads
module Shards = Acsi_server.Shards
module System = Acsi_aos.System

let name = "fleet"
let shards = 4
let pool = 2
(* Per rate; the p99 then has 400 sessions beyond it. *)
let sessions = 40_000

(* Mean arrival period of the nominal rate, in cycles: a little below
   the knee. Median latency is a few thousand cycles down to a period of
   about 640 and climbs past 100k cycles by 560; at 640 it still moves by
   6% from one arrival schedule to the next, at 720 by under 3%. *)
let nominal_period = 720

(* Arrival periods of the capacity ladder, longest first; the offered
   rate is 1e6 / period sessions per Mcycle. 800 always meets the limit;
   the rest are ~4% apart around where p99 crosses it (period 360-440,
   depending on the schedule). *)
let ladder = [ 800; 460; 440; 420; 405; 390; 375; 360 ]

(* The p99 latency limit: one default barrier round. *)
let p99_limit = 2_000_000

(* Host domains of the timed runs. Every round ends at a barrier, so on
   two domains of a shared 2-core host a run waits for whichever core
   another tenant holds: pass times of the same work doubled from one
   run to the next, against 2% on one domain. The post-check runs the
   nominal rate again on one domain per core, and the traced run probes
   Parallel.map on them. *)
let jobs = 1
let cfg = Config.default ~policy:(Policy.Fixed 3)

type prepared = {
  program : Acsi_bytecode.Program.t;
  seed : int;
  mutable nominal_summary : Shards.summary option;  (** from the last pass *)
}

let setup ~seed =
  (* Scale 1: the shortest session, as the sharded bench cells use. *)
  let program = (Workloads.find "session").Workloads.build ~scale:1 in
  Acsi_bytecode.Verify.program program;
  ignore (Runtime.run cfg program);
  { program; seed; nominal_summary = None }

let describe p =
  Printf.sprintf
    "%d sessions per rate, %d shards, pool %d, jobs %d, seed %d, nominal period \
     %d, ladder %s"
    sessions shards pool jobs p.seed nominal_period
    (String.concat "," (List.map string_of_int ladder))

let serve ?(jobs = jobs) p period =
  Shards.run ~jobs ~pool ~pool_policy:System.Hot_first ~shards ~sessions ~period
    ~seed:p.seed ~name:"session" cfg p.program

(* Sessions that were not served. *)
let unserved (r : Shards.result) =
  let served =
    List.fold_left (fun acc h -> acc + h.Shards.h_served) 0 r.Shards.shard_stats
  in
  if not (Shards.flows_conserved r.Shards.telemetry) then sessions
  else max 0 (sessions - served)

let pass p ~traced =
  let runs =
    List.map
      (fun period ->
        let r, dt =
          Pass.timed (fun () -> Span.with_ "shards.run" (fun () -> serve p period))
        in
        match r with
        | Error e ->
            Pass.log "[%s] period %d raised %s" name period e;
            (dt, period, sessions, None)
        | Ok r ->
            let missing = unserved r in
            if missing > 0 then
              Pass.log "[%s] period %d: %d of %d sessions not served" name
                period missing sessions;
            if traced then begin
              let s = r.Shards.summary in
              Layers.addi "shards.rounds" s.Shards.sh_rounds;
              Layers.addi "shards.steals" s.Shards.sh_steals;
              Layers.addi "shards.adopted" s.Shards.sh_adopted;
              List.iter
                (fun h -> Layers.addi "shards.compilations" h.Shards.h_opt_compilations)
                r.Shards.shard_stats
            end;
            (dt, period, missing, Some r))
      (nominal_period :: ladder)
  in
  let nominal =
    match runs with (_, _, 0, Some r) :: _ -> Some r | _ -> None
  in
  p.nominal_summary <- Option.map (fun r -> r.Shards.summary) nominal;
  if traced then begin
    match nominal with
    | None -> ()
    | Some r ->
        let s = r.Shards.summary in
        Layers.add "shards.fairness" s.Shards.sh_fairness;
        Layers.addi "shards.compile_wait_p99"
          (Acsi_obs.Hist.quantile r.Shards.telemetry.Shards.tel_compile_wait 99.0);
        let vm = Acsi_vm.Interp.create ~cost:cfg.Config.cost p.program in
        List.iter2
          (fun sys h ->
            Layers.of_system sys ~total_cycles:h.Shards.h_cycles;
            Layers.replay ~vm ~cost:cfg.Config.cost p.program sys)
          r.Shards.systems r.Shards.shard_stats;
        Layers.summarize p.program
  end;
  let capacity =
    List.fold_left
      (fun acc (_, period, missing, r) ->
        match r with
        | Some r
          when period <> nominal_period && missing = 0
               && r.Shards.summary.Shards.sh_p99 <= p99_limit ->
            Float.max acc (1e6 /. float_of_int period)
        | _ -> acc)
      0.0 runs
  in
  let virt =
    match nominal with
    | None -> []
    | Some r ->
        let s = r.Shards.summary in
        let opt_bytes =
          List.fold_left
            (fun acc sys ->
              acc + Acsi_aos.Registry.cumulative_bytes (System.registry sys))
            0 r.Shards.systems
        in
        [
          ("cycles_geomean", float_of_int s.Shards.sh_makespan);
          ("opt_code_bytes_geomean", float_of_int opt_bytes);
          ("requests_per_mcycle", s.Shards.sh_throughput_spmc);
          ("p50_cycles", float_of_int s.Shards.sh_p50);
          ("p99_cycles", float_of_int s.Shards.sh_p99);
          ("capacity_spmc", capacity);
        ]
  in
  {
    Pass.ops = Array.of_list (List.map (fun (dt, _, _, _) -> dt) runs);
    attempted = sessions * List.length runs;
    failed = List.fold_left (fun acc (_, _, missing, _) -> acc + missing) 0 runs;
    witness =
      Pass.witness
        (List.map
           (fun (_, _, _, r) -> Option.map (fun r -> r.Shards.summary) r)
           runs);
    virt;
  }

(* The fleet's figures must not depend on host parallelism: the nominal
   rate again on a different number of domains. *)
let post_check p =
  match p.nominal_summary with
  | None -> () (* the nominal run failed, and the pass says so *)
  | Some a ->
      let other = max 2 (Parallel.available_cores ()) in
      let b = (serve ~jobs:other p nominal_period).Shards.summary in
      if Pass.witness a <> Pass.witness b then
        raise
          (Pass.Nondeterministic
             (Printf.sprintf "fleet summary differs between jobs=%d and jobs=%d"
                jobs other))
