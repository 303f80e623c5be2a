type 'a t = {
  empty : 'a;
  mutable slots : 'a array;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
}

let create ~empty = { empty; slots = Array.make 16 empty; head = 0; len = 0 }
let length r = r.len

let push r x =
  let cap = Array.length r.slots in
  if r.len = cap then begin
    (* Unroll into an array twice the size, front element at 0. *)
    let bigger = Array.make (2 * cap) r.empty in
    for i = 0 to cap - 1 do
      bigger.(i) <- r.slots.((r.head + i) mod cap)
    done;
    r.slots <- bigger;
    r.head <- 0
  end;
  r.slots.((r.head + r.len) mod Array.length r.slots) <- x;
  r.len <- r.len + 1

let peek r = if r.len = 0 then r.empty else r.slots.(r.head)

let pop r =
  if r.len = 0 then r.empty
  else begin
    let x = r.slots.(r.head) in
    r.slots.(r.head) <- r.empty;
    r.head <- (r.head + 1) mod Array.length r.slots;
    r.len <- r.len - 1;
    x
  end
