type flow_dir = Out | In

type event =
  | Span of { track : string; name : string; t0 : int; t1 : int }
  | Counter of { track : string; name : string; t : int; value : int }
  | Instant of {
      track : string;
      name : string;
      t : int;
      args : (string * string) list;
    }
  | Flow of { track : string; name : string; t : int; id : int; dir : flow_dir }

type t = {
  enabled : bool;
  capacity : int;
  mutable buf : event array;
      (* grows by doubling up to [capacity]; [start = 0] until it is full *)
  mutable start : int;  (* index of the oldest event *)
  mutable len : int;
  mutable dropped : int;
  probe : int;
  charge : int -> unit;
}

let dummy = Instant { track = ""; name = ""; t = 0; args = [] }

let null =
  {
    enabled = false;
    capacity = 0;
    buf = [||];
    start = 0;
    len = 0;
    dropped = 0;
    probe = 0;
    charge = ignore;
  }

let create ?(probe = 0) ?(charge = ignore) ~capacity () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    enabled = true;
    capacity;
    buf = Array.make (min capacity 256) dummy;
    start = 0;
    len = 0;
    dropped = 0;
    probe;
    charge;
  }

let enabled t = t.enabled
let length t = t.len
let dropped t = t.dropped

let add t e =
  if t.len < t.capacity then begin
    (* Not full: nothing was evicted yet, so this is a plain append. *)
    if t.len = Array.length t.buf then begin
      let buf = Array.make (min t.capacity (2 * t.len)) dummy in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    t.buf.(t.len) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* Full: evict the oldest in place. *)
    t.buf.(t.start) <- e;
    t.start <- (t.start + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end;
  if t.probe > 0 then t.charge t.probe

let span t ~track ~name ~t0 ~t1 =
  if t.enabled && t1 > t0 then add t (Span { track; name; t0; t1 })

let counter t ~track ~name ~t:time ~value =
  if t.enabled then add t (Counter { track; name; t = time; value })

let instant t ~track ~name ~t:time ?(args = []) () =
  if t.enabled then add t (Instant { track; name; t = time; args })

let flow t ~track ~name ~t:time ~id ~dir =
  if t.enabled then add t (Flow { track; name; t = time; id; dir })

let iter t ~f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod t.capacity)
  done
