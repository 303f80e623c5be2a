(* Unit tests for the VM: values, cost accounting, runtime errors, guard
   semantics, hooks, code installation, and source-level stack walking. *)

open Acsi_bytecode
open Acsi_vm
open Acsi_lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile ?(classes = []) ?(globals = []) main =
  Compile.prog (Dsl.prog ~globals classes main)

let expect_runtime_error program fragment =
  let vm = Interp.create program in
  match Interp.run vm with
  | () -> Alcotest.failf "expected a runtime error mentioning %S" fragment
  | exception Interp.Runtime_error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
        in
        go 0
      in
      check_bool (Printf.sprintf "%S mentions %S" msg fragment) true
        (contains msg fragment)

(* --- values --- *)

let test_value_equal_cmp () =
  let o1 = Value.obj { Value.cls = Ids.Class_id.of_int 0; fields = [||] } in
  let o2 = Value.obj { Value.cls = Ids.Class_id.of_int 0; fields = [||] } in
  check_bool "ints" true (Value.equal_cmp (Value.of_int 3) (Value.of_int 3));
  check_bool "nulls" true (Value.equal_cmp Value.null Value.null);
  check_bool "same obj" true (Value.equal_cmp o1 o1);
  check_bool "distinct objs" false (Value.equal_cmp o1 o2);
  check_bool "mixed" false (Value.equal_cmp (Value.of_int 0) Value.null)

let test_value_truthy () =
  check_bool "zero" false (Value.truthy (Value.of_int 0));
  check_bool "null" false (Value.truthy Value.null);
  check_bool "nonzero" true (Value.truthy (Value.of_int (-2)));
  check_bool "array" true (Value.truthy (Value.arr [||]))

(* --- runtime errors --- *)

let test_division_by_zero () =
  Dsl.(
    expect_runtime_error
      (compile [ print (div (i 1) (i 0)) ])
      "division by zero")

let test_null_dereference () =
  let classes = Dsl.[ cls "A" ~fields:[ "x" ] [] ] in
  Dsl.(
    expect_runtime_error
      (compile ~classes [ let_ "a" Ast.Null; print (fld "A" (v "a") "x") ])
      "null dereference")

let test_array_bounds () =
  Dsl.(
    expect_runtime_error
      (compile [ let_ "a" (arr_new (i 2)); print (arr_get (v "a") (i 5)) ])
      "out of bounds")

let test_negative_array_size () =
  Dsl.(
    expect_runtime_error
      (compile [ let_ "a" (arr_new (i (-3))); print (arr_len (v "a")) ])
      "negative array size")

let test_int_receiver () =
  let classes =
    Dsl.[ cls "A" ~fields:[] [ meth "f" [] ~returns:true [ ret (i 1) ] ] ]
  in
  Dsl.(
    expect_runtime_error
      (compile ~classes [ let_ "x" (i 5); print (inv (v "x") "f" []) ])
      "expected an object")

(* --- determinism and accounting --- *)

let simple_program () =
  Dsl.(
    compile
      ~classes:
        [
          cls "A" ~fields:[]
            [ static_meth "twice" [ "x" ] ~returns:true [ ret (mul (v "x") (i 2)) ] ];
        ]
      [
        let_ "s" (i 0);
        for_ "k" (i 0) (i 100) [ let_ "s" (add (v "s") (call "A" "twice" [ v "k" ])) ];
        print (v "s");
      ])

let test_cycle_determinism () =
  let run () =
    let vm = Interp.create (simple_program ()) in
    Interp.run vm;
    (Interp.cycles vm, Interp.instructions_executed vm, Interp.calls_executed vm)
  in
  check_bool "two runs agree" true (run () = run ())

let test_costs_move_the_clock () =
  let vm = Interp.create (simple_program ()) in
  Interp.run vm;
  check_bool "cycles exceed instructions x baseline cost" true
    (Interp.cycles vm
    >= Interp.instructions_executed vm * Cost.default.Cost.baseline_instr)

let test_charge_advances_clock () =
  let vm = Interp.create (simple_program ()) in
  Interp.charge vm 12345;
  check_int "charged" 12345 (Interp.cycles vm)

let test_cycle_limit () =
  let program =
    Dsl.(
      compile
        [
          let_ "k" (i 0);
          while_ (ge (v "k") (i 0)) [ let_ "k" (add (v "k") (i 1)) ];
        ])
  in
  let vm = Interp.create program in
  match Interp.run ~cycle_limit:500_000 vm with
  | () -> Alcotest.fail "expected cycle limit"
  | exception Interp.Cycle_limit_exceeded -> ()

(* --- hooks --- *)

let test_first_execution_hook () =
  let program = simple_program () in
  let vm = Interp.create program in
  let firsts = ref 0 in
  Interp.set_on_first_execution vm (fun _ -> incr firsts);
  Interp.run vm;
  (* main + A.twice *)
  check_int "two methods ran" 2 !firsts;
  check_bool "was_executed" true
    (Interp.was_executed vm
       (Program.find_method program ~cls:"A" ~name:"twice").Meth.id)

let test_invoke_stride_hook () =
  let program = simple_program () in
  let vm = Interp.create ~invoke_stride:10 program in
  let hits = ref 0 in
  Interp.set_on_invoke vm (fun _ _ -> incr hits);
  Interp.run vm;
  (* 101 invocations (100 calls + main), stride 10 *)
  check_int "stride samples" 10 !hits

let test_timer_hook () =
  let program = simple_program () in
  let vm = Interp.create ~sample_period:1_000 program in
  let samples = ref 0 in
  Interp.set_on_timer_sample vm (fun _ -> incr samples);
  Interp.run vm;
  check_bool "samples proportional to cycles" true
    (abs ((Interp.cycles vm / 1_000) - !samples) <= 1)

(* --- guards (hand-assembled code) --- *)

(* Two classes implementing [pick]: A.pick = 10, B.pick = 20. A hand-built
   optimized body for a static method guards on A's implementation with a
   fallback virtual call, so we can exercise both guard outcomes. *)
let guard_program () =
  let open Dsl in
  let classes =
    [
      cls "A" ~fields:[] [ meth "pick" [] ~returns:true [ ret (i 10) ] ];
      cls "B" ~parent:"A" ~fields:[] [ meth "pick" [] ~returns:true [ ret (i 20) ] ];
      cls "D" ~fields:[]
        [
          static_meth "dispatch" [ "o" ] ~returns:true
            [ ret (inv (v "o") "pick" []) ];
        ];
    ]
  in
  compile ~classes
    [
      print (call "D" "dispatch" [ new_ "A" [] ]);
      print (call "D" "dispatch" [ new_ "B" [] ]);
    ]

let test_guard_hit_and_miss () =
  let program = guard_program () in
  let dispatch = Program.find_method program ~cls:"D" ~name:"dispatch" in
  let pick_a = Program.find_method program ~cls:"A" ~name:"pick" in
  let sel = pick_a.Meth.selector in
  (* Optimized dispatch body: guard for A.pick, inline [Const 10], fall
     back to the virtual call. Receiver arrives in local 0. *)
  let instrs =
    [|
      Instr.Load 0;
      Instr.Guard_method { Instr.expected = pick_a.Meth.id; sel; argc = 0; fail = 5 };
      Instr.Pop;  (* discard the receiver the guard peeked at *)
      Instr.Const 10;
      Instr.Return;
      Instr.Call_virtual (sel, 0);
      Instr.Return;
    |]
  in
  let code =
    {
      Code.meth = dispatch.Meth.id;
      tier = Code.Optimized;
      instrs;
      max_locals = 1;
      max_stack = 2;
      src = None;
      code_bytes = 0;
      assumptions = [];
    }
  in
  let vm = Interp.create program in
  Interp.install_code vm dispatch.Meth.id code;
  Interp.run vm;
  Alcotest.(check (list int)) "behaviour preserved" [ 10; 20 ] (Interp.output vm);
  check_int "one hit" 1 (Interp.guard_hits vm);
  check_int "one miss" 1 (Interp.guard_misses vm)

let test_install_code_affects_next_invocation () =
  let program = guard_program () in
  let vm = Interp.create program in
  let tier_seen = ref [] in
  let dispatch = Program.find_method program ~cls:"D" ~name:"dispatch" in
  Interp.set_on_invoke vm (fun vm mid ->
      if Ids.Method_id.equal mid dispatch.Meth.id then
        tier_seen := (Interp.code_of vm mid).Code.tier :: !tier_seen);
  Interp.run vm;
  check_bool "baseline code by default" true
    ((Interp.code_of vm dispatch.Meth.id).Code.tier = Code.Baseline)

(* --- source stack walking --- *)

let test_walk_source_stack_baseline () =
  let open Dsl in
  let classes =
    [
      cls "W" ~fields:[]
        [
          static_meth "inner" [] ~returns:true [ ret (i 1) ];
          static_meth "outer" [] ~returns:true [ ret (call "W" "inner" []) ];
        ];
    ]
  in
  let program = compile ~classes [ print (call "W" "outer" []) ] in
  let inner = Program.find_method program ~cls:"W" ~name:"inner" in
  let vm = Interp.create ~invoke_stride:1 program in
  let seen = ref [] in
  Interp.set_on_invoke vm (fun vm mid ->
      if Ids.Method_id.equal mid inner.Meth.id then begin
        let frames = ref [] in
        Interp.walk_source_stack vm ~f:(fun m _pc ->
            frames := (Program.meth program m).Meth.name :: !frames;
            true);
        seen := List.rev !frames
      end);
  Interp.run vm;
  Alcotest.(check (list string))
    "stack is inner, outer, main"
    [ "inner/0"; "outer/0"; "main/0" ]
    !seen

(* --- immediate integers ---

   Integers are immediates and every other value is a pointer to a heap
   cell; locals and operand-stack slots skip the write barrier when an
   integer overwrites an integer. The tests below run each program on
   the three execution engines: the windowed interpreter, the closure
   tier (every method's installed code compiled) and the naive reference
   loop. *)

let install_closure_tier vm =
  Array.iter
    (fun (m : Meth.t) ->
      Tier.install vm m.Meth.id (Interp.code_of vm m.Meth.id))
    (Program.methods (Interp.program vm))

let engines : (string * (Interp.t -> unit)) list =
  [
    ("interpreter", fun vm -> Interp.run vm);
    ( "closure tier",
      fun vm ->
        install_closure_tier vm;
        Interp.run vm );
    ("reference", fun vm -> Reference.run vm);
  ]

let box_classes =
  Dsl.
    [
      cls "Box" ~fields:[ "f"; "g" ] [];
      cls "Pass" ~fields:[]
        [
          static_meth "pick" [ "a"; "b" ] ~returns:true
            [ ret (cond (lt (v "a") (v "b")) (v "b") (v "a")) ];
        ];
    ]

(* Integers far outside the old shared cache of small-int cells
   ([-128, 1024)), the extremes of the host int, and powers of two. *)
let extreme_ints =
  [ min_int; min_int + 1; max_int; max_int - 1; -129; -128; 1023; 1024 ]
  @ [ 0; 1; -1 ]
  @ List.concat_map
      (fun k -> [ 1 lsl k; -(1 lsl k) ])
      [ 10; 16; 31; 32; 47; 61; 62 ]

let gen_extreme_program =
  let open QCheck.Gen in
  let ( let* ) = ( >>= ) in
  let int_locals = [ "x"; "y"; "z" ] in
  let leaf =
    oneof
      [
        map Dsl.i (oneofl extreme_ints);
        map Dsl.i (int_range (-2000) 2000);
        map Dsl.v (oneofl int_locals);
        map (fun k -> Dsl.(arr_get (v "arr") (i k))) (int_bound 7);
        return Dsl.(fld "Box" (v "box") "f");
      ]
  in
  let rec expr depth =
    if depth <= 0 then leaf
    else
      let sub = expr (depth - 1) in
      frequency
        [
          (2, leaf);
          ( 4,
            let* op =
              oneofl
                Instr.[ Add; Sub; Mul; And; Or; Xor; Shl; Shr; Div; Rem ]
            in
            let* a = sub in
            let* b = sub in
            (* an odd divisor is never zero *)
            return
              (match op with
              | Instr.Div | Instr.Rem -> Ast.Binop (op, a, Dsl.bor b (Dsl.i 1))
              | _ -> Ast.Binop (op, a, b)) );
          (1, map Dsl.neg sub);
          ( 2,
            let* c = oneofl Instr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
            map2 (fun a b -> Ast.Cmp (c, a, b)) sub sub );
          (1, map3 (fun c a b -> Dsl.(cond (lt c (i 0)) a b)) sub sub sub);
          (1, map2 (fun a b -> Dsl.(call "Pass" "pick" [ a; b ])) sub sub);
        ]
  in
  (* [r] takes turns holding integers and references *)
  let ref_value =
    oneofl
      Dsl.[ new_ "Box" []; null; v "arr"; v "box"; i max_int; i min_int; i 0 ]
  in
  let rec stmts fuel ~lvl =
    if fuel <= 0 then return []
    else
      let* s =
        frequency
          [
            ( 4,
              map2 (fun x e -> [ Dsl.let_ x e ]) (oneofl int_locals) (expr 2)
            );
            (3, map (fun e -> [ Dsl.print e ]) (expr 2));
            ( 2,
              map2 (fun k e -> Dsl.[ arr_set (v "arr") (i k) e ]) (int_bound 7)
                (expr 1) );
            (1, map (fun e -> Dsl.[ setf "Box" (v "box") "f" e ]) (expr 1));
            ( 3,
              map
                (fun r ->
                  Dsl.
                    [
                      let_ "r" r;
                      print (eq (v "r") null);
                      print (ne (v "r") (i 0));
                      print (not_ (v "r"));
                      print (instof (v "r") "Box");
                      if_ (v "r") [ print (i 1) ] [ print (i 0) ];
                    ])
                ref_value );
            ( 1,
              let* n = int_range 1 6 in
              let k = Printf.sprintf "k%d" lvl in
              let* body = stmts (fuel / 2) ~lvl:(lvl + 1) in
              return Dsl.[ for_ k (i 0) (i n) body ] );
          ]
      in
      let* rest = stmts (fuel - 1) ~lvl in
      return (s @ rest)
  in
  let* body = stmts 14 ~lvl:0 in
  return
    (Dsl.prog box_classes
       (Dsl.
          [
            let_ "arr" (arr_new (i 8));
            let_ "box" (new_ "Box" []);
            let_ "x" (i max_int);
            let_ "y" (i min_int);
            let_ "z" (i (1 lsl 40));
          ]
       @ body))

let prop_extreme_ints_differential =
  QCheck.Test.make ~name:"extreme ints: every engine matches run_no_aos"
    ~count:60 (QCheck.make gen_extreme_program) (fun ast ->
      let program = Compile.prog ast in
      let cfg =
        Acsi_core.Config.default
          ~policy:Acsi_policy.Policy.Context_insensitive
      in
      let expected = Acsi_core.Runtime.run_no_aos cfg program in
      List.for_all
        (fun (name, run) ->
          let vm = Interp.create ~sample_period:97 program in
          run vm;
          (Interp.output vm = Interp.output expected
          && Interp.cycles vm = Interp.cycles expected)
          || QCheck.Test.fail_reportf
               "%s: output or cycles differ from run_no_aos" name)
        engines)

(* Runs [program] on every engine and checks [expected] output. *)
let check_engines ?sample_period ?(prepare = fun _ -> ()) program expected =
  List.iter
    (fun (name, run) ->
      let vm = Interp.create ?sample_period program in
      prepare vm;
      run vm;
      Alcotest.(check (list int)) name expected (Interp.output vm))
    engines

let test_null_and_zero_distinct () =
  let program =
    Dsl.(
      compile ~classes:box_classes
        [
          let_ "z" (i 0);
          let_ "n" null;
          let_ "b" (new_ "Box" []);
          print (eq (v "z") (v "n"));
          print (ne (v "z") (v "n"));
          print (eq (v "n") null);
          print (eq (v "z") (i 0));
          print (eq (v "b") (v "b"));
          print (eq (v "b") (new_ "Box" []));
          print (not_ (v "z"));
          print (not_ (v "n"));
          print (not_ (i min_int));
          if_ (v "n") [ print (i 1) ] [ print (i 0) ];
          if_ (v "z") [ print (i 1) ] [ print (i 0) ];
          if_ (v "b") [ print (i 1) ] [ print (i 0) ];
          print (instof (v "z") "Box");
          print (instof (v "n") "Box");
          print (instof (v "b") "Box");
          print (instof (arr_new (i 0)) "Box");
        ])
  in
  check_engines program [ 0; 1; 1; 1; 1; 0; 1; 1; 0; 0; 0; 1; 0; 0; 1; 0 ]

(* A hand-built body for [D.dispatch o] guards on A's [pick]; the failure
   path answers 99 without dispatching, so null and 0 receivers both
   reach it. *)
let test_guard_rejects_null_and_zero () =
  let open Dsl in
  let program =
    compile
      ~classes:
        [
          cls "A" ~fields:[] [ meth "pick" [] ~returns:true [ ret (i 10) ] ];
          cls "D" ~fields:[]
            [
              static_meth "dispatch" [ "o" ] ~returns:true
                [ ret (inv (v "o") "pick" []) ];
            ];
        ]
      [
        print (call "D" "dispatch" [ new_ "A" [] ]);
        print (call "D" "dispatch" [ null ]);
        print (call "D" "dispatch" [ i 0 ]);
      ]
  in
  let dispatch = Program.find_method program ~cls:"D" ~name:"dispatch" in
  let pick = Program.find_method program ~cls:"A" ~name:"pick" in
  let code =
    {
      Code.meth = dispatch.Meth.id;
      tier = Code.Optimized;
      instrs =
        [|
          Instr.Load 0;
          Instr.Guard_method
            {
              Instr.expected = pick.Meth.id;
              sel = pick.Meth.selector;
              argc = 0;
              fail = 5;
            };
          Instr.Pop;
          Instr.Const 10;
          Instr.Return;
          Instr.Pop;
          Instr.Const 99;
          Instr.Return;
        |];
      max_locals = 1;
      max_stack = 2;
      src = None;
      code_bytes = 0;
      assumptions = [];
    }
  in
  List.iter
    (fun (name, run) ->
      let vm = Interp.create program in
      Interp.install_code vm dispatch.Meth.id code;
      run vm;
      Alcotest.(check (list int)) name [ 10; 99; 99 ] (Interp.output vm);
      check_int (name ^ ": hits") 1 (Interp.guard_hits vm);
      check_int (name ^ ": misses") 2 (Interp.guard_misses vm))
    engines

(* The exact trap texts, on every engine. *)
let test_trap_messages () =
  let trap main expected =
    let program =
      compile
        ~classes:
          (box_classes
          @ Dsl.
              [
                cls "F" ~fields:[]
                  [ meth "f" [] ~returns:true [ ret (i 1) ] ];
              ])
        Dsl.(
          [
            let_ "z" (i 0);
            let_ "n" null;
            let_ "b" (new_ "Box" []);
            let_ "a" (arr_new (i 2));
          ]
          @ main)
    in
    List.iter
      (fun (name, run) ->
        let vm = Interp.create program in
        match run vm with
        | () -> Alcotest.failf "%s: expected the trap %S" name expected
        | exception Interp.Runtime_error msg ->
            Alcotest.(check string) name expected msg)
      engines
  in
  Dsl.(
    trap [ print (add (v "n") (i 1)) ] "expected an integer, got null";
    trap [ print (lt (v "b") (i 1)) ] "expected an integer, got obj<#0>";
    trap [ print (mul (v "a") (i 1)) ] "expected an integer, got [|0; 0|]";
    trap [ print (fld "Box" (v "z") "f") ] "expected an object, got 0";
    trap [ print (fld "Box" (v "n") "f") ] "null dereference";
    trap [ print (fld "Box" (v "a") "f") ] "expected an object, got [|0; 0|]";
    trap [ print (inv (i max_int) "f" []) ]
      "expected an object, got 4611686018427387903";
    trap [ print (arr_len (v "n")) ] "null array dereference";
    trap [ print (arr_len (v "b")) ] "expected an array, got obj<#0>";
    trap [ print (arr_get (i min_int) (i 0)) ]
      "expected an array, got -4611686018427387904";
    trap [ print (arr_get (v "a") (i 2)) ]
      "array index 2 out of bounds (length 2)";
    trap [ print (div (i 1) (v "z")) ] "division by zero";
    trap [ print (rem (i 1) (v "z")) ] "remainder by zero";
    trap [ print (arr_len (arr_new (i (-3)))) ] "negative array size -3")

(* Barrier-free stores during GC marking: a timer hook forces major
   slices, and now and then a minor collection (promoting the frames),
   while [x] takes turns holding an object and a large integer and [t]
   an object and a loop counter. Each object moves from [x] into [keep]
   and is read back from there; a store that skipped a barrier it
   needed would leave a slot pointing at a moved or freed cell. (Writing
   a fresh object over an integer without the barrier fails this test.) *)
let test_gc_stress_mixed_slots () =
  let program =
    Dsl.(
      compile ~classes:box_classes
        [
          let_ "keep" (arr_new (i 64));
          let_ "acc" (i 0);
          let_ "x" (new_ "Box" []);
          setf "Box" (v "x") "f" (i 7);
          for_ "k" (i 0) (i 20000)
            [
              if_ (eq (band (v "k") (i 31)) (i 0))
                [
                  arr_set (v "keep") (band (shr (v "k") (i 5)) (i 63)) (v "x");
                  let_ "x" (add (v "k") (i (1 lsl 40)));
                  let_ "x" (new_ "Box" []);
                  setf "Box" (v "x") "f" (mul (v "k") (i 1_000_003));
                ]
                [];
              let_ "t" (arr_get (v "keep") (band (mul (v "k") (i 7)) (i 63)));
              if_ (ne (v "t") (i 0))
                [ let_ "acc" (bxor (v "acc") (fld "Box" (v "t") "f")) ]
                [];
              let_ "t" (v "k");
            ];
          print (v "acc");
        ])
  in
  let expected = Interp.create program in
  Interp.run expected;
  let slices = ref 0 in
  check_engines program (Interp.output expected) ~sample_period:2_000
    ~prepare:(fun vm ->
      Interp.set_on_timer_sample vm (fun _ ->
          incr slices;
          if !slices mod 8 = 0 then Gc.minor ();
          ignore (Gc.major_slice 0)));
  check_bool "the hook ran" true (!slices > 100)

let suite =
  [
    Alcotest.test_case "value equal_cmp" `Quick test_value_equal_cmp;
    Alcotest.test_case "value truthy" `Quick test_value_truthy;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "null dereference" `Quick test_null_dereference;
    Alcotest.test_case "array bounds" `Quick test_array_bounds;
    Alcotest.test_case "negative array size" `Quick test_negative_array_size;
    Alcotest.test_case "dispatch on integer" `Quick test_int_receiver;
    Alcotest.test_case "deterministic cycles" `Quick test_cycle_determinism;
    Alcotest.test_case "costs move the clock" `Quick test_costs_move_the_clock;
    Alcotest.test_case "charge advances clock" `Quick test_charge_advances_clock;
    Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
    Alcotest.test_case "first-execution hook" `Quick test_first_execution_hook;
    Alcotest.test_case "invoke stride hook" `Quick test_invoke_stride_hook;
    Alcotest.test_case "timer hook" `Quick test_timer_hook;
    Alcotest.test_case "guard hit and miss" `Quick test_guard_hit_and_miss;
    Alcotest.test_case "installed code tier" `Quick
      test_install_code_affects_next_invocation;
    Alcotest.test_case "source stack walk" `Quick test_walk_source_stack_baseline;
    QCheck_alcotest.to_alcotest prop_extreme_ints_differential;
    Alcotest.test_case "null and 0 stay distinct" `Quick
      test_null_and_zero_distinct;
    Alcotest.test_case "guards reject null and 0" `Quick
      test_guard_rejects_null_and_zero;
    Alcotest.test_case "trap messages" `Quick test_trap_messages;
    Alcotest.test_case "GC stress on mixed slots" `Quick
      test_gc_stress_mixed_slots;
  ]
