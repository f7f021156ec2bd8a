(* Virtual-clock time-series.

   A run samples a fixed column schema (gauges and cumulative counters)
   at points of the *virtual* clock — the round barriers of the sharded
   fleet — so a series is a pure function of (program, config, seed) and
   byte-identical across host parallelism. Storage is one flat growable
   int array (row-major), allocation-light on the sampling path. *)

type t = {
  columns : string array;
  ncols : int;
  mutable times : int array;
  mutable data : int array; (* row-major, ncols per row *)
  mutable len : int; (* rows *)
}

let create ~columns =
  if columns = [] then invalid_arg "Timeseries.create: no columns";
  let columns = Array.of_list columns in
  let ncols = Array.length columns in
  {
    columns;
    ncols;
    times = Array.make 16 0;
    data = Array.make (16 * ncols) 0;
    len = 0;
  }

let columns t = Array.to_list t.columns
let length t = t.len

let ensure t =
  if t.len = Array.length t.times then begin
    let cap = 2 * t.len in
    let times = Array.make cap 0 in
    Array.blit t.times 0 times 0 t.len;
    t.times <- times;
    let data = Array.make (cap * t.ncols) 0 in
    Array.blit t.data 0 data 0 (t.len * t.ncols);
    t.data <- data
  end

let sample t ~now values =
  if Array.length values <> t.ncols then
    invalid_arg "Timeseries.sample: wrong arity";
  ensure t;
  t.times.(t.len) <- now;
  Array.blit values 0 t.data (t.len * t.ncols) t.ncols;
  t.len <- t.len + 1

let row t i =
  if i < 0 || i >= t.len then invalid_arg "Timeseries.row: out of range";
  (t.times.(i), Array.sub t.data (i * t.ncols) t.ncols)

let iter t ~f =
  for i = 0 to t.len - 1 do
    f ~now:t.times.(i) (Array.sub t.data (i * t.ncols) t.ncols)
  done

let column_index t name =
  let rec find i =
    if i = t.ncols then invalid_arg ("Timeseries.column: unknown " ^ name)
    else if t.columns.(i) = name then i
    else find (i + 1)
  in
  find 0

let column t name =
  let c = column_index t name in
  Array.init t.len (fun i -> t.data.((i * t.ncols) + c))

let last t name =
  if t.len = 0 then 0
  else t.data.(((t.len - 1) * t.ncols) + column_index t name)

let checksum t =
  let acc = ref 17 in
  for i = 0 to t.len - 1 do
    acc := (!acc * 31) + t.times.(i);
    for c = 0 to t.ncols - 1 do
      acc := ((!acc * 31) + t.data.((i * t.ncols) + c)) land max_int
    done
  done;
  !acc land max_int

(* --- sparklines --- *)

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* Render [values] as one block character each, scaled so the maximum
   maps to the full block. All-zero (or empty) input renders as the
   lowest block throughout — a flatline, not an error. *)
let spark values =
  let hi = Array.fold_left max 0 values in
  let b = Buffer.create (Array.length values * 3) in
  Array.iter
    (fun v ->
      let v = if v < 0 then 0 else v in
      let i = if hi = 0 then 0 else v * 7 / hi in
      Buffer.add_string b blocks.(i))
    values;
  Buffer.contents b

let sparkline t name = spark (column t name)
