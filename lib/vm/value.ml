open Acsi_bytecode

(* An integer is an immediate; anything else points at a [cell]. No
   [t] is an object (see the interface for why the type says so):
   values are only ever built by the [%identity] casts below, and a
   [cell] is only inspected once [is_int] has ruled out an immediate. *)
type t = < >

and obj = {
  cls : Ids.Class_id.t;
  fields : t array;
}

type cell = Null of unit | Obj of obj | Arr of t array

external is_int : t -> bool = "%obj_is_int"
external to_int : t -> int = "%identity"
external of_int : int -> t = "%identity"
external of_bool : bool -> t = "%identity"
external cell : t -> cell = "%identity"
external of_cell : cell -> t = "%identity"
external int_slots : t array -> int array = "%identity"
external equal_cmp : t -> t -> bool = "%eq"

let null = of_cell (Null ())
let zero = of_int 0
let obj o = of_cell (Obj o)
let arr a = of_cell (Arr a)

let alloc program cid =
  let cls = Program.clazz program cid in
  obj { cls = cid; fields = Array.make (Clazz.field_count cls) zero }

let truthy v = not (v == zero || v == null)

let rec pp fmt v =
  if is_int v then Format.fprintf fmt "%d" (to_int v)
  else
    match cell v with
    | Null () -> Format.fprintf fmt "null"
    | Obj o -> Format.fprintf fmt "obj<%a>" Ids.Class_id.pp o.cls
    | Arr a ->
        Format.fprintf fmt "[|";
        Array.iteri
          (fun i v ->
            if i > 0 then Format.fprintf fmt "; ";
            if i < 8 then pp fmt v else if i = 8 then Format.fprintf fmt "...")
          a;
        Format.fprintf fmt "|]"
