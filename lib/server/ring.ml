(* Free slots hold an immediate and are never read, as in the VM's frame
   stack: a popped element is unreachable from the ring at once, and an
   int ring holds no pointer at all. The capacity is a power of two, so
   the wrap is a mask. *)
type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
}

let initial_capacity = 16
let blank () : 'a array = Array.make initial_capacity (Obj.magic 0)
let create () = { buf = blank (); head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t x =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let bigger = Array.make (2 * cap) (Obj.magic 0) in
    let first = cap - t.head in
    Array.blit t.buf t.head bigger 0 first;
    Array.blit t.buf 0 bigger first t.head;
    t.buf <- bigger;
    t.head <- 0
  end;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.buf.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- Obj.magic 0;
  t.len <- t.len - 1;
  if t.len = 0 then begin
    t.head <- 0;
    if Array.length t.buf > initial_capacity then t.buf <- blank ()
  end
  else t.head <- (t.head + 1) land (Array.length t.buf - 1);
  x
