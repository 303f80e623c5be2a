(* Tests for on-stack replacement: the extension that lets a long-running
   method benefit from its own recompilation without returning first. *)

open Acsi_bytecode
open Acsi_core
open Acsi_policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A single monolithic main whose hot loop never returns until the end —
   exactly the shape that cannot benefit from recompilation without OSR. *)
let monolithic_program () =
  let open Acsi_lang.Dsl in
  Acsi_lang.Compile.prog
    (prog
       [
         cls "M" ~fields:[]
           [
             static_meth "work" [ "x" ] ~returns:true
               [ ret (band (add (mul (v "x") (i 17)) (i 3)) (i 65535)) ];
           ];
       ]
       [
         let_ "s" (i 0);
         for_ "k" (i 0) (i 400000)
           [ let_ "s" (call "M" "work" [ add (v "s") (v "k") ]) ];
         print (v "s");
       ])

let run ~osr program =
  let cfg = Config.default ~policy:(Policy.Fixed 2) in
  let cfg =
    { cfg with Config.aos = { cfg.Config.aos with Acsi_aos.System.enable_osr = osr } }
  in
  Runtime.run cfg program

let test_osr_fires_on_monolithic_main () =
  let program = monolithic_program () in
  let with_osr = run ~osr:true program in
  let without = run ~osr:false program in
  check_bool "OSR replaced at least one frame" true
    (Acsi_vm.Interp.osr_count with_osr.Runtime.vm > 0);
  check_int "no OSR without the flag" 0
    (Acsi_vm.Interp.osr_count without.Runtime.vm);
  Alcotest.(check (list int))
    "same output"
    (Acsi_vm.Interp.output without.Runtime.vm)
    (Acsi_vm.Interp.output with_osr.Runtime.vm);
  check_bool "OSR makes the monolithic main faster" true
    (with_osr.Runtime.metrics.Metrics.total_cycles
    < without.Runtime.metrics.Metrics.total_cycles)

let test_osr_preserves_workload_outputs () =
  List.iter
    (fun (name, program) ->
      let base = run ~osr:false program in
      let osr = run ~osr:true program in
      Alcotest.(check (list int))
        (name ^ " output under OSR")
        (Acsi_vm.Interp.output base.Runtime.vm)
        (Acsi_vm.Interp.output osr.Runtime.vm))
    (Acsi_workloads.Workloads.build_all ~scale_factor:0.15 ())

(* Direct mechanism test: install optimized code while a method is on
   stack and OSR it from a hook. *)
let test_osr_mechanism_direct () =
  let program = monolithic_program () in
  let main_id = Program.main program in
  let vm = Acsi_vm.Interp.create ~sample_period:50_000 program in
  let fired = ref 0 in
  Acsi_vm.Interp.set_on_timer_sample vm (fun vm ->
      if !fired = 0 then begin
        let oracle = Acsi_jit.Oracle.create program in
        let code, _ =
          Acsi_jit.Expand.compile program (Acsi_vm.Interp.cost vm) oracle
            ~root:(Program.meth program main_id)
        in
        Acsi_vm.Interp.install_code vm main_id code;
        let table = Acsi_deopt.Deopt.table_of_code program code in
        if Acsi_deopt.Deopt.osr_up vm table = 1 then incr fired
      end);
  Acsi_vm.Interp.run vm;
  check_int "direct OSR succeeded" 1 !fired;
  check_int "counted" 1 (Acsi_vm.Interp.osr_count vm)


(* Transfer points pinned: for every workload of the harness at two
   scales, three fixed-level policies and speculation off/on, the total
   cycles and the number of upward and downward transfers under
   [enable_osr]. Any change to which frames move, where they land or
   what a transfer is charged shows up here as a cycle or count delta. *)
let osr_pins =
  [
    ("compress", 0.25, 1, false, (8028235, 0, 0));
    ("compress", 0.25, 1, true, (8028235, 0, 0));
    ("jess", 0.25, 1, false, (11518130, 1, 0));
    ("jess", 0.25, 1, true, (14844246, 3, 1));
    ("db", 0.25, 1, false, (12765113, 2, 0));
    ("db", 0.25, 1, true, (15216005, 3, 1));
    ("javac", 0.25, 1, false, (10688749, 3, 0));
    ("javac", 0.25, 1, true, (11289034, 4, 0));
    ("mpeg", 0.25, 1, false, (13762411, 1, 0));
    ("mpeg", 0.25, 1, true, (13762411, 1, 0));
    ("mtrt", 0.25, 1, false, (16552353, 3, 0));
    ("mtrt", 0.25, 1, true, (17480059, 4, 0));
    ("jack", 0.25, 1, false, (8095920, 2, 0));
    ("jack", 0.25, 1, true, (8563363, 3, 0));
    ("jbb", 0.25, 1, false, (11445044, 2, 0));
    ("jbb", 0.25, 1, true, (14223863, 4, 3));
    ("compress", 0.25, 3, false, (6795153, 1, 0));
    ("compress", 0.25, 3, true, (6795153, 1, 0));
    ("jess", 0.25, 3, false, (11372528, 1, 0));
    ("jess", 0.25, 3, true, (13826391, 5, 0));
    ("db", 0.25, 3, false, (12332872, 1, 0));
    ("db", 0.25, 3, true, (12332872, 1, 0));
    ("javac", 0.25, 3, false, (10264557, 1, 0));
    ("javac", 0.25, 3, true, (10387028, 1, 0));
    ("mpeg", 0.25, 3, false, (13855477, 1, 0));
    ("mpeg", 0.25, 3, true, (13855477, 1, 0));
    ("mtrt", 0.25, 3, false, (16555481, 1, 0));
    ("mtrt", 0.25, 3, true, (17485652, 2, 0));
    ("jack", 0.25, 3, false, (8177110, 2, 0));
    ("jack", 0.25, 3, true, (8393533, 2, 0));
    ("jbb", 0.25, 3, false, (11761328, 3, 0));
    ("jbb", 0.25, 3, true, (13210147, 5, 1));
    ("compress", 0.25, 5, false, (6795153, 1, 0));
    ("compress", 0.25, 5, true, (6795153, 1, 0));
    ("jess", 0.25, 5, false, (11372528, 1, 0));
    ("jess", 0.25, 5, true, (13826391, 5, 0));
    ("db", 0.25, 5, false, (13085972, 4, 0));
    ("db", 0.25, 5, true, (13085972, 4, 0));
    ("javac", 0.25, 5, false, (10315554, 1, 0));
    ("javac", 0.25, 5, true, (10315554, 1, 0));
    ("mpeg", 0.25, 5, false, (13855477, 1, 0));
    ("mpeg", 0.25, 5, true, (13855477, 1, 0));
    ("mtrt", 0.25, 5, false, (16555481, 1, 0));
    ("mtrt", 0.25, 5, true, (17485652, 2, 0));
    ("jack", 0.25, 5, false, (8265356, 0, 0));
    ("jack", 0.25, 5, true, (8505799, 0, 0));
    ("jbb", 0.25, 5, false, (11912853, 2, 0));
    ("jbb", 0.25, 5, true, (13136041, 4, 0));
    ("compress", 1.0, 1, false, (24142632, 0, 0));
    ("compress", 1.0, 1, true, (24142632, 0, 0));
    ("jess", 1.0, 1, false, (36022307, 2, 0));
    ("jess", 1.0, 1, true, (39308173, 3, 1));
    ("db", 1.0, 1, false, (34026115, 2, 0));
    ("db", 1.0, 1, true, (36421400, 3, 1));
    ("javac", 1.0, 1, false, (28031722, 3, 0));
    ("javac", 1.0, 1, true, (28379591, 7, 0));
    ("mpeg", 1.0, 1, false, (50126814, 1, 0));
    ("mpeg", 1.0, 1, true, (50126814, 1, 0));
    ("mtrt", 1.0, 1, false, (59180638, 3, 0));
    ("mtrt", 1.0, 1, true, (59989111, 4, 0));
    ("jack", 1.0, 1, false, (23547141, 2, 0));
    ("jack", 1.0, 1, true, (24103850, 4, 0));
    ("jbb", 1.0, 1, false, (33680911, 2, 0));
    ("jbb", 1.0, 1, true, (35946122, 4, 3));
    ("compress", 1.0, 3, false, (22954577, 2, 0));
    ("compress", 1.0, 3, true, (22954577, 2, 0));
    ("jess", 1.0, 3, false, (35884951, 3, 0));
    ("jess", 1.0, 3, true, (38293904, 5, 0));
    ("db", 1.0, 3, false, (33777244, 1, 0));
    ("db", 1.0, 3, true, (33777244, 1, 0));
    ("javac", 1.0, 3, false, (26837026, 3, 0));
    ("javac", 1.0, 3, true, (27643633, 1, 0));
    ("mpeg", 1.0, 3, false, (50288027, 1, 0));
    ("mpeg", 1.0, 3, true, (50288027, 1, 0));
    ("mtrt", 1.0, 3, false, (59066657, 1, 0));
    ("mtrt", 1.0, 3, true, (59999630, 2, 0));
    ("jack", 1.0, 3, false, (23066201, 2, 0));
    ("jack", 1.0, 3, true, (23282125, 2, 0));
    ("jbb", 1.0, 3, false, (33610256, 5, 0));
    ("jbb", 1.0, 3, true, (34830221, 5, 1));
    ("compress", 1.0, 5, false, (22954577, 2, 0));
    ("compress", 1.0, 5, true, (22954577, 2, 0));
    ("jess", 1.0, 5, false, (35884951, 3, 0));
    ("jess", 1.0, 5, true, (38293904, 5, 0));
    ("db", 1.0, 5, false, (34624546, 4, 0));
    ("db", 1.0, 5, true, (34624546, 4, 0));
    ("javac", 1.0, 5, false, (27329111, 1, 0));
    ("javac", 1.0, 5, true, (27329111, 1, 0));
    ("mpeg", 1.0, 5, false, (50288027, 1, 0));
    ("mpeg", 1.0, 5, true, (50288027, 1, 0));
    ("mtrt", 1.0, 5, false, (59066657, 1, 0));
    ("mtrt", 1.0, 5, true, (59999630, 2, 0));
    ("jack", 1.0, 5, false, (22965631, 0, 0));
    ("jack", 1.0, 5, true, (23206734, 0, 0));
    ("jbb", 1.0, 5, false, (33968461, 2, 0));
    ("jbb", 1.0, 5, true, (34891397, 4, 0));
  ]

let test_osr_pinned () =
  let built = Hashtbl.create 4 in
  List.iter
    (fun (name, scale_factor, level, speculate, expected) ->
      let programs =
        match Hashtbl.find_opt built scale_factor with
        | Some ps -> ps
        | None ->
            let ps = Acsi_workloads.Workloads.build_all ~scale_factor () in
            Hashtbl.add built scale_factor ps;
            ps
      in
      let cfg = Config.default ~policy:(Policy.Fixed level) in
      let cfg =
        {
          cfg with
          Config.aos =
            {
              cfg.Config.aos with
              Acsi_aos.System.enable_osr = true;
              speculate;
            };
        }
      in
      let r = Runtime.run cfg (List.assoc name programs) in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s x%g fixed(%d) speculate=%b" name scale_factor
           level speculate)
        expected
        ( r.Runtime.metrics.Metrics.total_cycles,
          Acsi_vm.Interp.osr_up r.Runtime.vm,
          Acsi_vm.Interp.osr_down r.Runtime.vm ))
    osr_pins

(* A frame transferred twice: baseline -> optimized v1, then the stale
   v1 frame -> optimized v2, each from a timer hook once the top frame
   sits at a transferable point. *)
let test_osr_twice () =
  let program = monolithic_program () in
  let main_id = Program.main program in
  let vm = Acsi_vm.Interp.create ~sample_period:50_000 program in
  let moved = ref 0 in
  Acsi_vm.Interp.set_on_timer_sample vm (fun vm ->
      if !moved < 2 then begin
        let oracle = Acsi_jit.Oracle.create program in
        let code, _ =
          Acsi_jit.Expand.compile program (Acsi_vm.Interp.cost vm) oracle
            ~root:(Program.meth program main_id)
        in
        Acsi_vm.Interp.install_code vm main_id code;
        let table = Acsi_deopt.Deopt.table_of_code program code in
        if Acsi_deopt.Deopt.osr_up vm table = 1 then incr moved
      end);
  Acsi_vm.Interp.run vm;
  check_int "two transfers" 2 !moved;
  check_int "osr_up" 2 (Acsi_vm.Interp.osr_up vm);
  Alcotest.(check (list int))
    "output equals the AOS-free run"
    (Acsi_vm.Interp.output
       (Runtime.run_no_aos (Config.default ~policy:(Policy.Fixed 2)) program))
    (Acsi_vm.Interp.output vm)

let suite =
  [
    Alcotest.test_case "OSR fires on a monolithic main" `Quick
      test_osr_fires_on_monolithic_main;
    Alcotest.test_case "OSR preserves workload outputs" `Slow
      test_osr_preserves_workload_outputs;
    Alcotest.test_case "OSR mechanism, direct" `Quick test_osr_mechanism_direct;
    Alcotest.test_case "OSR transfers one frame twice" `Quick test_osr_twice;
    Alcotest.test_case "OSR transfer points pinned" `Slow test_osr_pinned;
  ]
