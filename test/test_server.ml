(* Server mode: virtual threads over one shared VM, the round-robin
   scheduler, background compilation, and the deterministic load
   generator. Also the PR's reentrancy regression: two threads
   interleaving inside the *same* method must not corrupt each other
   (frames are per-invocation; window exits flush pc/sp, which is what
   makes suspension at a quantum boundary safe). *)

open Acsi_lang
module Interp = Acsi_vm.Interp
module System = Acsi_aos.System
module Config = Acsi_core.Config
module Metrics = Acsi_core.Metrics
module Policy = Acsi_policy.Policy
module Sched = Acsi_server.Sched
module Load = Acsi_server.Load
module Server = Acsi_server.Server
module Workloads = Acsi_workloads.Workloads

(* A self-contained program: every value it touches is a frame local or
   an object it allocated itself, so N interleaved executions must each
   print exactly 5050 no matter how they are scheduled. *)
let counter_prog =
  Dsl.(
    prog
      [
        cls "W" ~fields:[ "acc" ]
          [
            meth "init" [ "start" ] ~returns:false
              [ set_thisf "acc" (v "start") ];
            meth "bump" [ "x" ] ~returns:true
              [
                set_thisf "acc" (add (thisf "acc") (v "x"));
                ret (thisf "acc");
              ];
          ];
      ]
      [
        let_ "w" (new_ "W" [ i 0 ]);
        let_ "s" (i 0);
        for_ "i" (i 0) (i 100)
          [ let_ "s" (add (v "s") (inv (v "w") "bump" [ i 1 ])) ];
        print (v "s");
      ])

let counter_program () = Compile.prog counter_prog

(* --- satellite 1: interleaving two threads in the same method --- *)

let test_interleaved_reentrancy () =
  let program = counter_program () in
  (* Reference: one plain (non-threaded) run. *)
  let ref_vm = Interp.create program in
  Interp.run ref_vm;
  let expected = Interp.output ref_vm in
  Alcotest.(check (list int)) "reference output" [ 5050 ] expected;
  (* Two threads of the same program over one VM, with a quantum small
     enough that both are routinely suspended mid-[bump]/mid-loop. *)
  let vm = Interp.create program in
  let sched = Sched.create ~quantum:97 ~switch_cost:3 vm in
  let t1 = Sched.spawn sched in
  let t2 = Sched.spawn sched in
  let rec drain () =
    match Sched.run_slice sched with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "both threads finished" 0 (Sched.live sched);
  Alcotest.(check (list int))
    "completion order is the spawn order"
    [ t1; t2 ]
    (List.map fst (Sched.completions sched));
  (* Interleaving actually happened: each thread needed many slices. *)
  Alcotest.(check bool)
    "threads interleaved" true
    (Sched.resumes sched ~tid:t1 > 5 && Sched.resumes sched ~tid:t2 > 5);
  Alcotest.(check (list int))
    "each interleaved execution computed 5050" [ 5050; 5050 ]
    (Interp.output vm)

let test_resume_rejects_bad_quantum () =
  let program = counter_program () in
  let vm = Interp.create program in
  let th = Interp.spawn vm in
  Alcotest.check_raises "quantum must be positive"
    (Invalid_argument "Interp.resume: quantum must be positive") (fun () ->
      ignore (Interp.resume vm th ~quantum:0))

(* --- satellite 3: fairness under round-robin --- *)

let test_fairness_no_starvation () =
  let program = counter_program () in
  let vm = Interp.create program in
  let sched = Sched.create ~quantum:199 ~switch_cost:5 vm in
  let tids = List.init 5 (fun _ -> Sched.spawn sched) in
  let rec drain () =
    match Sched.run_slice sched with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "all five threads completed" 5
    (List.length (Sched.completions sched));
  Alcotest.(check int) "max live" 5 (Sched.max_live sched);
  (* Round-robin bound: between two resumes of one thread, at most every
     other live thread runs once — nobody waits longer than the peak
     number of live threads. *)
  Alcotest.(check bool)
    (Printf.sprintf "no starvation (max gap %d <= %d)"
       (Sched.max_resume_gap sched) (Sched.max_live sched))
    true
    (Sched.max_resume_gap sched <= Sched.max_live sched);
  (* Identical threads must get near-identical service. *)
  let resumes = List.map (fun tid -> Sched.resumes sched ~tid) tids in
  let mn = List.fold_left min max_int resumes in
  let mx = List.fold_left max 0 resumes in
  Alcotest.(check bool)
    (Printf.sprintf "balanced service (resumes %d..%d)" mn mx)
    true
    (mx - mn <= 2)

(* The ready ring wraps and grows: 24 threads fill past the initial
   capacity, 40 slices move the head round the ring, then 56 more spawns
   grow it while wrapped, and thread ids pass the initial size of the
   per-tid resume counts. The completion log is the one the
   [Stdlib.Queue] scheduler produced for the same spawns: same order,
   same finish cycles. *)
let test_ring_wraps_and_grows () =
  let vm = Interp.create (counter_program ()) in
  let sched = Sched.create ~quantum:61 ~switch_cost:3 vm in
  for _ = 1 to 24 do ignore (Sched.spawn sched) done;
  for _ = 1 to 40 do ignore (Sched.run_slice sched) done;
  Alcotest.(check int) "all 24 still live" 24 (Sched.live sched);
  for _ = 1 to 56 do ignore (Sched.spawn sched) done;
  let rec drain () =
    match Sched.run_slice sched with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "completions as under the queue scheduler"
    [
      (0, 2428564); (1, 2428587); (2, 2428610); (3, 2428633);
      (4, 2428656); (5, 2428679); (6, 2428702); (7, 2428725);
      (8, 2428748); (9, 2428771); (10, 2428794); (11, 2428817);
      (12, 2428840); (13, 2428863); (14, 2428886); (15, 2428909);
      (16, 2433020); (17, 2433043); (18, 2433066); (19, 2433089);
      (20, 2433112); (21, 2433135); (22, 2433158); (23, 2433181);
      (24, 2437292); (25, 2437315); (26, 2437338); (27, 2437361);
      (28, 2437384); (29, 2437407); (30, 2437430); (31, 2437453);
      (32, 2437476); (33, 2437499); (34, 2437522); (35, 2437545);
      (36, 2437568); (37, 2437591); (38, 2437614); (39, 2437637);
      (40, 2437660); (41, 2437683); (42, 2437706); (43, 2437729);
      (44, 2437752); (45, 2437775); (46, 2437798); (47, 2437821);
      (48, 2437844); (49, 2437867); (50, 2437890); (51, 2437913);
      (52, 2437936); (53, 2437959); (54, 2437982); (55, 2438005);
      (56, 2438028); (57, 2438051); (58, 2438074); (59, 2438097);
      (60, 2438120); (61, 2438143); (62, 2438166); (63, 2438189);
      (64, 2438212); (65, 2438235); (66, 2438258); (67, 2438281);
      (68, 2438304); (69, 2438327); (70, 2438350); (71, 2438373);
      (72, 2438396); (73, 2438419); (74, 2438442); (75, 2438465);
      (76, 2438488); (77, 2438511); (78, 2438534); (79, 2438557);
    ]
    (Sched.completions sched);
  Alcotest.(check bool)
    (Printf.sprintf "max gap %d <= max live %d" (Sched.max_resume_gap sched)
       (Sched.max_live sched))
    true
    (Sched.max_resume_gap sched <= Sched.max_live sched);
  for tid = 64 to 79 do
    Alcotest.(check bool)
      (Printf.sprintf "tid %d resumed" tid)
      true
      (Sched.resumes sched ~tid > 0)
  done;
  Alcotest.(check int) "unknown tid" 0 (Sched.resumes sched ~tid:80);
  Alcotest.(check int) "negative tid" 0 (Sched.resumes sched ~tid:(-1))

(* A finished thread keeps no stack: its frame array held every frame it
   pushed, with their registers and the objects they referenced. *)
let test_finished_thread_drops_frames () =
  let vm = Interp.create (counter_program ()) in
  let th = Interp.spawn vm in
  Alcotest.(check bool)
    "ran to completion" true
    (Interp.resume vm th ~quantum:max_int = Interp.Done);
  let words = Obj.reachable_words (Obj.repr th) in
  Alcotest.(check bool)
    (Printf.sprintf "finished thread reaches %d words" words)
    true (words < 32)

(* --- satellite 2: metrics snapshot / diff --- *)

let test_snapshot_diff () =
  let program = counter_program () in
  let vm = Interp.create program in
  let sys = System.create (System.default_config (Policy.Fixed 3)) vm in
  let s0 = Metrics.snapshot vm sys in
  Interp.charge vm 123;
  let s1 = Metrics.snapshot vm sys in
  let d = Metrics.diff ~before:s0 ~after:s1 in
  Alcotest.(check int) "cycles delta" 123 d.Metrics.s_cycles;
  Alcotest.(check int) "no instructions" 0 d.Metrics.s_instructions;
  Alcotest.(check int) "no calls" 0 d.Metrics.s_calls;
  Alcotest.(check int) "no compilations" 0 d.Metrics.s_opt_compilations;
  Alcotest.(check int) "no output" 0 d.Metrics.s_output_len

(* --- the load generator --- *)

let test_open_loop_arrivals () =
  let a = Load.open_loop_arrivals ~seed:42 ~period:1000 ~n:200 in
  let b = Load.open_loop_arrivals ~seed:42 ~period:1000 ~n:200 in
  Alcotest.(check (array int)) "deterministic" a b;
  let c = Load.open_loop_arrivals ~seed:43 ~period:1000 ~n:200 in
  Alcotest.(check bool) "seed-sensitive" true (a <> c);
  let prev = ref 0 in
  Array.iter
    (fun at ->
      let gap = at - !prev in
      Alcotest.(check bool)
        (Printf.sprintf "gap %d within [501, 1500]" gap)
        true
        (gap >= 501 && gap <= 1500);
      prev := at)
    a

let test_percentiles () =
  let xs = Array.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50" 50 (Load.percentile xs 50.0);
  Alcotest.(check int) "p95" 95 (Load.percentile xs 95.0);
  Alcotest.(check int) "p99" 99 (Load.percentile xs 99.0);
  Alcotest.(check int) "p100" 100 (Load.percentile xs 100.0);
  Alcotest.(check int) "empty" 0 (Load.percentile [||] 50.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Load.mean xs)

(* [Load.percentiles] sorts once for all of its percentiles; the
   reference spec [Load.percentile] sorts per call. They must agree on
   every sample (empty included) and every percentile. *)
let prop_percentiles_match_spec =
  QCheck.Test.make ~name:"Load.percentiles agrees with Load.percentile"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 200) (int_range (-1000) 1_000_000))
        (list_of_size Gen.(int_range 0 6) (float_range 0.0 100.0)))
    (fun (values, ps) ->
      let xs = Array.of_list values in
      let ps = Array.of_list (50.0 :: 95.0 :: 99.0 :: 100.0 :: ps) in
      Load.percentiles xs ps = Array.map (Load.percentile xs) ps)

(* --- the server harness itself --- *)

let serve_db ?(async_compile = true) () =
  let program = (Workloads.find "db").Workloads.build ~scale:2 in
  Server.run ~quantum:25_000 ~switch_cost:200 ~seed:5 ~async_compile
    ~mode:
      (Server.Closed { clients = 2; requests_per_client = 2; think = 10_000 })
    ~name:"db"
    (Config.default ~policy:(Policy.Fixed 3))
    program

(* Tentpole acceptance: background compilation overlaps mutator
   progress — requests retire instructions while compiles are in
   flight, and the finished code is installed at yield points. *)
let test_async_compilation_overlaps () =
  let r = serve_db () in
  let s = r.Server.summary in
  Alcotest.(check int) "all requests served" 4 s.Server.sv_requests;
  Alcotest.(check bool)
    "background compiles were installed" true
    (s.Server.sv_async_installs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "mutator advanced %d instructions during compiles"
       s.Server.sv_overlap_instructions)
    true
    (s.Server.sv_overlap_instructions > 0);
  (* The warmup-curve windows tile the run exactly. *)
  let total = List.fold_left (fun a w -> a + w.Server.w_count) 0 r.Server.windows in
  Alcotest.(check int) "windows tile the requests" s.Server.sv_requests total;
  let installs =
    List.fold_left
      (fun a w -> a + w.Server.w_activity.Metrics.s_async_installs)
      0 r.Server.windows
  in
  Alcotest.(check int)
    "window install counts telescope to the total"
    s.Server.sv_async_installs installs

let test_sync_compile_still_works () =
  let r = serve_db ~async_compile:false () in
  let s = r.Server.summary in
  Alcotest.(check int) "all requests served" 4 s.Server.sv_requests;
  Alcotest.(check int) "no async installs in sync mode" 0
    s.Server.sv_async_installs;
  Alcotest.(check int) "no overlap in sync mode" 0
    s.Server.sv_overlap_instructions;
  Alcotest.(check bool) "still compiled" true (s.Server.sv_opt_compilations > 0)

(* Verify-on-install runs on background-compiled code too: every async
   install passes the same [Jit_check] gate as a synchronous one. *)
let test_async_verify_outside_clock () =
  let program = (Workloads.find "db").Workloads.build ~scale:2 in
  let s =
    (Server.run ~seed:5
       ~mode:
         (Server.Closed { clients = 2; requests_per_client = 2; think = 10_000 })
       ~name:"db"
       (Config.default ~policy:(Policy.Fixed 3))
       program)
      .Server.summary
  in
  Alcotest.(check bool) "async installs were verified" true
    (s.Server.sv_async_installs > 0)

(* --- satellite 3: determinism of full server runs --- *)

let test_serve_deterministic () =
  let a = serve_db () and b = serve_db () in
  Alcotest.(check bool) "summaries identical" true (a.Server.summary = b.Server.summary);
  Alcotest.(check bool) "per-request records identical" true
    (a.Server.requests = b.Server.requests)

let test_serve_jobs_invariant () =
  let serve_one name =
    let program = (Workloads.find name).Workloads.build ~scale:2 in
    (Server.run ~seed:11
       ~mode:
         (Server.Closed { clients = 2; requests_per_client = 2; think = 10_000 })
       ~name
       (Config.default ~policy:(Policy.Fixed 3))
       program)
      .Server.summary
  in
  let benches = [ "db"; "jess" ] in
  let serial = Acsi_core.Parallel.map ~jobs:1 serve_one benches in
  let parallel = Acsi_core.Parallel.map ~jobs:3 serve_one benches in
  Alcotest.(check bool) "summaries independent of --jobs" true
    (serial = parallel)

(* --- static pre-warm oracle: warmup-reduction regression --- *)

(* The EXPERIMENTS.md warmup-ablation claim, pinned as a test: under the
   bench panel's exact configuration (scale 1, closed loop 4 clients x
   16 requests, Fixed 3), seeding from summaries must bring at least
   three serve workloads to steady state in fewer requests while leaving
   the merged output checksum byte-identical. *)
let test_static_seed_warmup_reduction () =
  let serve ~seeded name =
    let program = (Workloads.find name).Workloads.build ~scale:1 in
    let cfg = Config.default ~policy:(Policy.Fixed 3) in
    let cfg =
      {
        cfg with
        Config.aos = { cfg.Config.aos with System.static_seed = seeded };
      }
    in
    (Server.run
       ~mode:
         (Server.Closed { clients = 4; requests_per_client = 16; think = 50_000 })
       ~name cfg program)
      .Server.summary
  in
  let reduced =
    List.filter
      (fun name ->
        let off = serve ~seeded:false name in
        let on_ = serve ~seeded:true name in
        Alcotest.(check int)
          (name ^ ": same request count")
          off.Server.sv_requests on_.Server.sv_requests;
        on_.Server.sv_output_checksum = off.Server.sv_output_checksum
        && on_.Server.sv_warmup_requests < off.Server.sv_warmup_requests)
      [ "db"; "compress"; "jack"; "javac" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "at least 3 of 4 workloads reach steady state earlier (got %d: %s)"
       (List.length reduced) (String.concat ", " reduced))
    true
    (List.length reduced >= 3)

let suite =
  [
    Alcotest.test_case "interleaved reentrancy (same method)" `Quick
      test_interleaved_reentrancy;
    Alcotest.test_case "resume rejects non-positive quantum" `Quick
      test_resume_rejects_bad_quantum;
    Alcotest.test_case "round-robin fairness" `Quick test_fairness_no_starvation;
    Alcotest.test_case "ready ring wraps and grows" `Quick
      test_ring_wraps_and_grows;
    Alcotest.test_case "finished thread drops its frames" `Quick
      test_finished_thread_drops_frames;
    Alcotest.test_case "metrics snapshot diff" `Quick test_snapshot_diff;
    Alcotest.test_case "open-loop arrivals" `Quick test_open_loop_arrivals;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    QCheck_alcotest.to_alcotest prop_percentiles_match_spec;
    Alcotest.test_case "async compilation overlaps mutator" `Slow
      test_async_compilation_overlaps;
    Alcotest.test_case "sync compilation path unchanged" `Slow
      test_sync_compile_still_works;
    Alcotest.test_case "async verify-on-install off the clock" `Slow
      test_async_verify_outside_clock;
    Alcotest.test_case "server runs are deterministic" `Slow
      test_serve_deterministic;
    Alcotest.test_case "server summaries invariant under --jobs" `Slow
      test_serve_jobs_invariant;
    Alcotest.test_case "static seeding cuts warmup, output identical" `Slow
      test_static_seed_warmup_reduction;
  ]
