(* Host spans for the traced run, recorded from the benchmark's side of
   each call into a library. Spans stay in memory and are written out
   once, when the run ends; nothing inside the simulator is touched. *)

type t = {
  id : int;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  name : string;  (** "<layer>.<call>", e.g. "jit.expand" *)
  start_s : float;
  stop_s : float;
  minor_words : float;  (** [Gc.minor_words] delta of the calling domain *)
}

let enabled = ref false
let next_id = ref 0
let open_ids = ref []
let recorded = ref []

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let w1 = Gc.minor_words () in
        open_ids := List.tl !open_ids;
        recorded :=
          { id; parent; name; start_s = t0; stop_s = t1; minor_words = w1 -. w0 }
          :: !recorded)
  end

let duration s = s.stop_s -. s.start_s

(* Spans recorded since [mark ()] returned [m], oldest first. *)
let mark () = !next_id
let since m = List.rev (List.filter (fun s -> s.id >= m) !recorded)

(* Self time and self allocation per span name over [spans]: a span's self
   time is its duration minus the part covered by its direct children,
   and likewise for allocation, so nested spans are never counted twice. *)
let self_totals spans =
  let children = Hashtbl.create 64 in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:(0.0, 0.0) in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let t, w = get children s.parent in
        Hashtbl.replace children s.parent (t +. duration s, w +. s.minor_words)
      end)
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ct, cw = get children s.id in
      let t, w = get totals s.name in
      Hashtbl.replace totals s.name
        (t +. duration s -. ct, w +. s.minor_words -. cw))
    spans;
  totals

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"minor_words\":%.0f}\n"
        s.id s.parent s.name s.start_s s.stop_s s.minor_words)
    (List.rev !recorded);
  close_out oc

let last () = match !recorded with s :: _ -> Some s | [] -> None
