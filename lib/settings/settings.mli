(** The engine settings a user can set from the command line, as one
    table. Every entry point builds its configuration through {!term} and
    {!apply}; results files stamp each run with the values under each
    setting's [key]; compare.exe labels runs with [labels] and refuses to
    diff runs whose stamps differ. *)

type t = private {
  key : string;  (** JSON key in a results run *)
  flag : string;  (** the CLI flag; it flips the default *)
  doc : string;
  default : bool;
  json : string * string;  (** JSON text of the off and on values *)
  labels : string * string;  (** compare header label, off and on *)
  cycle_neutral : bool;
      (** the setting changes host time only, never a virtual cycle *)
  set : bool -> Acsi_core.Config.t -> Acsi_core.Config.t;
}

val tier : t
(** On: optimized methods run on the closure-compiled second tier. *)

val static_seed : t
(** On: the static pre-warm oracle seeds inlining at method install. *)

val speculate : t
(** On: guard-free speculative inlining with deoptimization (and
    on-stack replacement both ways). *)

val all : t list
(** [tier; static_seed; speculate]: the table, in stamp order. *)

type values = (t * bool) list
(** One value per setting of {!all}, in order. *)

val get : values -> t -> bool

val apply : values -> Acsi_core.Config.t -> Acsi_core.Config.t
(** Each setting's [set] in table order. Applying every default to
    {!Acsi_core.Config.default} changes nothing. *)

val pick : string * string -> bool -> string
(** [pick (off, on) v]: the [json] text or label for value [v]. *)

val term : values Cmdliner.Term.t
(** One flag per setting. *)

val positive : int Cmdliner.Arg.conv
(** Integers [>= 1]; anything else is a usage error. *)
