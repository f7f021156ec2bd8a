(* Splitmix64-style mixing with the multiplier constants truncated to
   OCaml's 63-bit ints. Quality is unimportant — only determinism and a
   lack of obvious arrival-period resonance matter. *)
let next_rand state =
  let z = (state + 0x1E3779B97F4A7C15) land max_int in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  z lxor (z lsr 31)

let open_loop_arrivals ~seed ~period ~n =
  if period <= 1 then invalid_arg "Load.open_loop_arrivals: period must be > 1";
  let arrivals = Array.make (max 0 n) 0 in
  let state = ref (next_rand (seed lxor 0x5DEECE66D)) in
  let clock = ref 0 in
  for i = 0 to n - 1 do
    state := next_rand !state;
    let gap = (period / 2) + 1 + (!state mod period) in
    clock := !clock + gap;
    arrivals.(i) <- !clock
  done;
  arrivals

(* In-place ascending sort of [a.(lo..hi)]: quicksort with a
   median-of-three pivot and Hoare partitioning (runs of equal keys split
   evenly, so all-equal samples stay n log n), insertion sort below 16
   elements. Monomorphic, so every comparison is an inline integer
   compare rather than a call through [Int.compare]. Recursing into the
   smaller side first bounds the stack at log n. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      sort_ints a lo !j;
      sort_ints a !i hi
    end
    else begin
      sort_ints a !i hi;
      sort_ints a lo !j
    end
  end

let percentiles xs ps =
  let n = Array.length xs in
  if n = 0 then Array.map (fun _ -> 0) ps
  else begin
    let sorted = Array.copy xs in
    sort_ints sorted 0 (n - 1);
    Array.map
      (fun p ->
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        sorted.(min (n - 1) (max 0 (rank - 1))))
      ps
  end

let percentile xs p = (percentiles xs [| p |]).(0)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 xs) /. float_of_int n

let window_mean xs first len =
  let sum = ref 0 in
  for i = first to first + len - 1 do
    sum := !sum + xs.(i)
  done;
  float_of_int !sum /. float_of_int len

let warmup_requests xs =
  let n = Array.length xs in
  if n = 0 then 0
  else begin
    let w = max 1 (n / 8) in
    let steady = window_mean xs (n - w) w in
    let rec find i =
      if i + w > n then n
      else if Float.abs (window_mean xs i w -. steady) <= 0.25 *. steady then i
      else find (i + 1)
    in
    find 0
  end
