(* One pass over a workload's fixed work, and what every workload
   provides to the measurement loop in [Main]. *)

(* Host seconds of one operation, and of the {!Reference} kernel run
   just before and just after it (their mean). *)
type timing = { op_s : float; ref_s : float }

type t = {
  ops : timing array;
      (** each timed operation, in a fixed order; the same operations
          run in every pass of a run *)
  attempted : int;  (** cells, requests or sessions *)
  failed : int;  (** raised, wrong output, or never completed *)
  witness : string;
      (** every virtual-clock figure of the pass, serialized: two passes
          of one run must produce the same bytes *)
  virt : (string * float) list;  (** the virtual end-to-end metrics *)
}

(* A virtual-clock figure that changed between two executions of the
   same work: the benchmark refuses to report. *)
exception Nondeterministic of string

module type WORKLOAD = sig
  type prepared

  val name : string

  val setup : seed:int -> prepared
  (** Build, verify and reference-run the inputs; fill process caches. *)

  val describe : prepared -> string
  (** What a pass runs, for the log (paper-sweep: the drawn policies). *)

  val pass : prepared -> traced:bool -> t
  (** One pass of the fixed work. [traced] turns on host calibration and
      records the per-layer numbers ({!Layers}) and spans ({!Span}). *)

  val post_check : prepared -> unit
  (** Determinism checks run after the measured phase, off the clock;
      raises {!Nondeterministic}. *)
end

let now = Unix.gettimeofday

(* Runs [f], timing it between two runs of the reference kernel; an
   exception becomes [Error] (an operation that raised counts as
   failed), except a trace reconciliation failure, which is the
   benchmark's own. *)
let timed f =
  let before = Reference.time () in
  let t0 = now () in
  let r =
    try Ok (f ()) with
    | Layers.Trace_mismatch _ as e -> raise e
    | e -> Error (Printexc.to_string e)
  in
  let op_s = now () -. t0 in
  let after = Reference.time () in
  (r, { op_s; ref_s = (before +. after) /. 2.0 })

let witness v = Marshal.to_string v [ Marshal.No_sharing ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* One adaptive run of [program] to completion, checked against the
   AOS-free [reference] output checksum. Traced, it also records the
   run's per-layer numbers and replays its JIT pipeline. Returns the
   run's timing and, for a correct run, its metrics. *)
let run_program ~label ~traced (cfg : Acsi_core.Config.t) program ~reference =
  let open Acsi_core in
  let r, dt =
    timed (fun () ->
        Span.with_ "vm.run" (fun () -> Runtime.run ~calibrate:traced cfg program))
  in
  match r with
  | Error e ->
      log "[%s] raised %s" label e;
      (dt, None)
  | Ok r ->
      let m = r.Runtime.metrics in
      if traced then begin
        Layers.check_calibration_within r.Runtime.vm
          ~span_s:(Span.duration (Option.get (Span.last ())));
        Layers.of_vm r.Runtime.vm;
        Layers.of_system r.Runtime.sys ~total_cycles:m.Metrics.total_cycles;
        Layers.replay ~vm:r.Runtime.vm ~cost:cfg.Config.cost program r.Runtime.sys
      end;
      if m.Metrics.output_checksum = reference then (dt, Some m)
      else begin
        log "[%s] output checksum %d, reference %d" label
          m.Metrics.output_checksum reference;
        (dt, None)
      end
