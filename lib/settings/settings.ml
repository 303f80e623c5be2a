open Acsi_core

type t = {
  key : string;
  flag : string;
  doc : string;
  default : bool;
  json : string * string;
  labels : string * string;
  cycle_neutral : bool;
  set : bool -> Config.t -> Config.t;
}

let aos f (cfg : Config.t) = { cfg with Config.aos = f cfg.Config.aos }

let tier =
  {
    key = "tier";
    flag = "no-native-tier";
    doc =
      "Interpreter tier only; metrics and output are identical, only host \
       time changes.";
    default = true;
    json = ({|"interp"|}, {|"closure"|});
    labels = ("tier interp", "tier closure");
    cycle_neutral = true;
    set = (fun b -> aos (fun a -> { a with Acsi_aos.System.native_tier = b }));
  }

let static_seed =
  {
    key = "static_seed";
    flag = "static-seed";
    doc =
      "Enable the static pre-warm oracle: interprocedural summaries computed \
       at class-load time drive inlining at method install, before any \
       profile sample exists (provenance records these under the static \
       source).";
    default = false;
    json = ("false", "true");
    labels = ("reactive", "seeded");
    cycle_neutral = false;
    set = (fun b -> aos (fun a -> { a with Acsi_aos.System.static_seed = b }));
  }

(* Speculation needs on-stack transfers both ways, so recompiles activate
   immediately and reverted methods drain their stale frames; turning it
   off leaves [enable_osr] as it was. *)
let speculate =
  {
    key = "speculate";
    flag = "speculate";
    doc =
      "Enable guard-free speculative inlining: virtual sites monomorphic \
       over the loaded class universe whose receiver pre-exists the \
       activation are inlined with no guard; a class load that breaks the \
       recorded assumption (or a guard storm) deoptimizes the method \
       through its frame-state table. Implies on-stack replacement in both \
       directions.";
    default = false;
    json = ("false", "true");
    labels = ("guarded", "speculative");
    cycle_neutral = false;
    set =
      (fun b ->
        aos (fun a ->
            {
              a with
              Acsi_aos.System.speculate = b;
              enable_osr = b || a.Acsi_aos.System.enable_osr;
            }));
  }

let all = [ tier; static_seed; speculate ]

type values = (t * bool) list

let get values s = List.assq s values
let apply values cfg = List.fold_left (fun cfg (s, v) -> s.set v cfg) cfg values
let pick (off, on) v = if v then on else off

let term =
  let open Cmdliner in
  List.fold_right
    (fun s rest ->
      Term.(
        const (fun flipped rest -> (s, flipped <> s.default) :: rest)
        $ Arg.(value & flag & info [ s.flag ] ~doc:s.doc)
        $ rest))
    all (Term.const [])

let positive =
  Cmdliner.Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some _ | None ->
            Error (`Msg (Printf.sprintf "%S is not a positive integer" s))),
      Format.pp_print_int )
