(* The reference kernel: fixed work of the benchmark's own, timed next
   to every operation so that host time can be reported as a multiple of
   it ({!Pass.timing}).

   The host's speed changes by a third from one stretch of seconds to
   the next (other tenants of a shared machine), and a slow stretch can
   outlast a whole run. Code run at the same moment slows down with it,
   so the ratio of an operation's time to the kernel's stays put while
   both times move. The kernel does what the simulator's closure tier
   does most, calls through closures that read and write int arrays,
   and it does not allocate, so the simulator's heap cannot change its
   cost. Nothing in it depends on the simulator: a change to the
   simulator moves the ratio by exactly its own effect. *)

type code = int array -> unit

let table = Array.make 4096 0
let seq (a : code) (b : code) : code = fun r -> a r; b r
let mix i j : code = fun r -> r.(i) <- ((r.(i) * 31) + r.(j)) land 0xffffff
let load i : code = fun r -> r.(i) <- r.(i) lxor table.(r.(i) land 4095)
let store i j : code = fun r -> table.(r.(i) land 4095) <- r.(j)
let branch i (a : code) (b : code) : code =
 fun r -> if r.(i) land 1 = 0 then a r else b r

let body =
  seq (mix 0 1)
    (seq
       (branch 0 (seq (mix 1 2) (load 1)) (seq (mix 2 3) (store 2 0)))
       (seq (mix 3 0) (branch 3 (store 1 3) (seq (mix 4 3) (load 4)))))

let iterations = 200_000

(* The kernel's time on a quiet 2.1 GHz Xeon host: [setup_s] is reported
   in seconds of a host on which the kernel takes exactly this long. *)
let nominal_s = 0.005

let run () =
  let r = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  for _ = 1 to iterations do
    body r
  done;
  r.(0) + r.(4)

(* Host seconds of one run of the kernel. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run ()));
  Unix.gettimeofday () -. t0
