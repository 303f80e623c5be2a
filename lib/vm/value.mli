(** Runtime values and heap objects.

    The heap is managed by the host (OCaml) garbage collector; the paper's
    semispace collector is out of scope (see DESIGN.md).

    {2 Representation}

    An integer is an immediate OCaml int: [of_int] and [to_int] are the
    identity, and integers never allocate. Everything else points at a
    heap {!cell}, and the cells are told apart by their block tag, so no
    cell is ever an immediate (not even [null], which would otherwise
    collide with [0]). A match on a {!cell} must only ever see a value
    for which [is_int] is false.

    Every non-integer value is created exactly once ([null] is a single
    shared cell; {!alloc}, {!obj} and {!arr} each make a fresh one), so
    the bytecode's equality — reference equality on objects and arrays,
    value equality on integers — is physical equality on [t]. *)

type t = private < >
(** An immediate int, or a pointer to a {!cell}. No value is an object:
    the empty object type only has nothing to match on, and it tells
    the compiler that a [t array] holds pointers or immediates, never
    unboxed floats, so array accesses need no float-array test (an
    abstract type would add one to every access). The primitives below
    are [external]s, so they inline into other modules even where the
    compiler cannot look into this module's implementation. *)

and obj = {
  cls : Acsi_bytecode.Ids.Class_id.t;
  fields : t array;
}

type cell = private
  | Null of unit
      (** The dummy field makes [Null] a block, distinct from the
          immediate [0]. *)
  | Obj of obj
  | Arr of t array
(** What a non-integer value points at. *)

external is_int : t -> bool = "%obj_is_int"
(** Whether the value is an integer. *)

external to_int : t -> int = "%identity"
(** The integer an [is_int] value holds; meaningless on any other value. *)

external of_int : int -> t = "%identity"

external of_bool : bool -> t = "%identity"
(** [of_int 1] / [of_int 0]. *)

external cell : t -> cell = "%identity"
(** The cell a value that is not [is_int] points at. Callers test
    {!is_int} first: matching the result of [cell] on an integer reads
    the tag of a non-block. *)

external int_slots : t array -> int array = "%identity"
(** The same array, typed so that a store compiles to a plain write with
    no GC write barrier. Only sound for writing an integer over a slot
    that currently holds an integer: that is the one case in which the
    barrier ([caml_modify]) does nothing but the write itself, since an
    immediate needs no remembered-set entry and the overwritten immediate
    needs no marking. Any other store goes through the [t array]. *)

external equal_cmp : t -> t -> bool = "%eq"
(** Reference equality on objects and arrays, value equality on ints,
    and [null = null]; mixed kinds are unequal. This is the semantics of
    the [Cmp Eq] bytecode, and it is [==] on this representation. *)

val null : t

val zero : t
(** Default value of fresh fields, globals, array slots, and locals:
    [of_int 0], matching Java's default for primitive slots. Code holding
    references in arrays (e.g. the library HashMap) must null its slots
    explicitly, as [0] is not a valid dispatch receiver. *)

val obj : obj -> t
(** A fresh object cell. *)

val arr : t array -> t
(** A fresh array cell. *)

val alloc : Acsi_bytecode.Program.t -> Acsi_bytecode.Ids.Class_id.t -> t
(** Fresh object with all fields set to {!zero}. *)

val truthy : t -> bool
(** [0] and [null] are false; everything else is true. *)

val pp : Format.formatter -> t -> unit
