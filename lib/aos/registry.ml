open Acsi_bytecode

type entry = {
  mutable version : int;
  mutable stats : Acsi_jit.Expand.stats;
  mutable rule_stamp : int;
  inlined : (int * int * int, unit) Hashtbl.t;
  inlined_methods : (int, unit) Hashtbl.t;
}

(* [method_roots] inverts the entries' [inlined_methods] sets: method id ->
   the set of roots whose *current* optimized code contains an inlined
   copy of it. The missing-edge organizer asks "which optimized roots
   contain this caller?" once per rule per pass; the inverted index
   answers from one bucket instead of a scan over every entry.
   Maintained on [record]: a recompilation first retracts the root from
   the buckets of its previous code's methods, then inserts it into the
   new ones. The root's own membership ([contains_method] is reflexively
   true) is implicit — [roots_containing] adds it back — so the index
   only tracks genuine inlined bodies. *)
type t = {
  entries : entry option array;
  method_roots : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable entry_count : int;
  mutable compilations : int;
  mutable cumulative_bytes : int;
  mutable cumulative_cycles : int;
}

let create program =
  {
    entries = Array.make (Program.method_count program) None;
    method_roots = Hashtbl.create 64;
    entry_count = 0;
    compilations = 0;
    cumulative_bytes = 0;
    cumulative_cycles = 0;
  }

let entry t (mid : Ids.Method_id.t) = t.entries.((mid :> int))

let index_remove t ~root mid =
  match Hashtbl.find_opt t.method_roots mid with
  | None -> ()
  | Some bucket ->
      Hashtbl.remove bucket root;
      if Hashtbl.length bucket = 0 then Hashtbl.remove t.method_roots mid

let index_add t ~root mid =
  let bucket =
    match Hashtbl.find_opt t.method_roots mid with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 4 in
        Hashtbl.add t.method_roots mid b;
        b
  in
  Hashtbl.replace bucket root ()

let record t (mid : Ids.Method_id.t) (stats : Acsi_jit.Expand.stats)
    ~rule_stamp =
  t.compilations <- t.compilations + 1;
  t.cumulative_bytes <- t.cumulative_bytes + stats.Acsi_jit.Expand.code_bytes;
  t.cumulative_cycles <-
    t.cumulative_cycles + stats.Acsi_jit.Expand.compile_cycles;
  let e =
    match t.entries.((mid :> int)) with
    | Some e ->
        e.version <- e.version + 1;
        e.stats <- stats;
        e.rule_stamp <- rule_stamp;
        Hashtbl.iter
          (fun m () -> index_remove t ~root:(mid :> int) m)
          e.inlined_methods;
        Hashtbl.reset e.inlined;
        Hashtbl.reset e.inlined_methods;
        e
    | None ->
        let e =
          {
            version = 1;
            stats;
            rule_stamp;
            inlined = Hashtbl.create 16;
            inlined_methods = Hashtbl.create 8;
          }
        in
        t.entries.((mid :> int)) <- Some e;
        t.entry_count <- t.entry_count + 1;
        e
  in
  List.iter
    (fun ((caller, _, callee) as edge) ->
      Hashtbl.replace e.inlined edge ();
      Hashtbl.replace e.inlined_methods caller ();
      Hashtbl.replace e.inlined_methods callee ())
    stats.Acsi_jit.Expand.inlined_edges;
  Hashtbl.iter (fun m () -> index_add t ~root:(mid :> int) m) e.inlined_methods

let has_inlined t ~root ~(caller : Ids.Method_id.t) ~callsite
    ~(callee : Ids.Method_id.t) =
  match entry t root with
  | None -> false
  | Some e ->
      Hashtbl.mem e.inlined ((caller :> int), callsite, (callee :> int))

let contains_method t ~root (mid : Ids.Method_id.t) =
  match entry t root with
  | None -> false
  | Some e ->
      Ids.Method_id.equal root mid || Hashtbl.mem e.inlined_methods (mid :> int)

let roots_containing t (mid : Ids.Method_id.t) =
  let roots =
    match Hashtbl.find_opt t.method_roots (mid :> int) with
    | None -> []
    | Some bucket -> Hashtbl.fold (fun root () acc -> root :: acc) bucket []
  in
  let roots =
    if t.entries.((mid :> int)) <> None then (mid :> int) :: roots else roots
  in
  (* Ascending root order — the same order a scan over the entries array
     visits them in, so consumers enqueue work deterministically. *)
  List.sort_uniq Int.compare roots |> List.map Ids.Method_id.of_int

let opt_method_count t = t.entry_count
let opt_compilation_count t = t.compilations

let installed_bytes t =
  Array.fold_left
    (fun acc e ->
      match e with
      | Some e -> acc + e.stats.Acsi_jit.Expand.code_bytes
      | None -> acc)
    0 t.entries

let cumulative_bytes t = t.cumulative_bytes
let cumulative_compile_cycles t = t.cumulative_cycles

let iter t ~f =
  Array.iteri
    (fun i e ->
      match e with Some e -> f (Ids.Method_id.of_int i) e | None -> ())
    t.entries
