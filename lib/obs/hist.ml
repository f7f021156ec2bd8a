(* Log-bucketed integer histogram (HDR-style, power-of-two sub-bucketed).

   Values below [2^sub_bits] get exact unit buckets; above that, each
   power-of-two range [2^e, 2^(e+1)) is split into [2^sub_bits] equal
   sub-buckets of width [2^(e - sub_bits)], so the bucket width never
   exceeds value / 2^sub_bits — a bounded *relative* error.  Recording
   is a handful of integer ops and touches one array slot: cheap enough
   to stay on in the million-session server paths.  Quantiles are
   nearest-rank over the cumulative bucket counts and return the
   bucket's upper edge clamped to the recorded maximum, so
   [exact <= quantile <= exact + exact/2^sub_bits + 1] against the
   full-sort reference spec in [Acsi_server.Load.percentile]. *)

type t = {
  sub_bits : int;
  sub : int; (* 2^sub_bits sub-buckets per power-of-two range *)
  counts : int array;
  mutable count : int;
  mutable sum : int; (* exact sum of recorded values *)
  mutable max_v : int;
  mutable min_v : int;
}

let create ?(sub_bits = 5) () =
  if sub_bits < 1 || sub_bits > 16 then
    invalid_arg "Hist.create: sub_bits out of [1,16]";
  let sub = 1 lsl sub_bits in
  {
    sub_bits;
    sub;
    counts = Array.make (sub * (64 - sub_bits)) 0;
    count = 0;
    sum = 0;
    max_v = min_int;
    min_v = max_int;
  }

let sub_bits t = t.sub_bits
let count t = t.count
let sum t = t.sum
let max_value t = if t.count = 0 then 0 else t.max_v
let min_value t = if t.count = 0 then 0 else t.min_v

(* Position of the most significant set bit of [v > 0]. *)
let msb v =
  let e = ref 0 in
  let x = ref (v lsr 1) in
  while !x > 0 do
    incr e;
    x := !x lsr 1
  done;
  !e

let index t v =
  if v < t.sub then v
  else
    let e = msb v in
    (t.sub * (e - t.sub_bits + 1)) + ((v lsr (e - t.sub_bits)) - t.sub)

(* Inclusive [lo, hi] range of bucket [i] — inverse of [index]. *)
let bounds t i =
  if i < t.sub then (i, i)
  else
    let q = i / t.sub and r = i mod t.sub in
    let width = 1 lsl (q - 1) in
    let lo = (t.sub + r) * width in
    (lo, lo + width - 1)

let record_n t v n =
  if n < 0 then invalid_arg "Hist.record_n: negative count";
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    t.counts.(index t v) <- t.counts.(index t v) + n;
    t.count <- t.count + n;
    t.sum <- t.sum + (v * n);
    if v > t.max_v then t.max_v <- v;
    if v < t.min_v then t.min_v <- v
  end

let record t v = record_n t v 1

let merge ~into src =
  if into.sub_bits <> src.sub_bits then
    invalid_arg "Hist.merge: sub_bits mismatch";
  Array.iteri
    (fun i n -> if n > 0 then into.counts.(i) <- into.counts.(i) + n)
    src.counts;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.count > 0 then begin
    if src.max_v > into.max_v then into.max_v <- src.max_v;
    if src.min_v < into.min_v then into.min_v <- src.min_v
  end

let quantile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hist.quantile: p out of [0,100]";
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
    let rank = min t.count (max 1 rank) in
    let cum = ref 0 in
    let i = ref 0 in
    let n = Array.length t.counts in
    while !cum < rank && !i < n do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    let _, hi = bounds t (!i - 1) in
    min hi t.max_v
  end

let iter_buckets t ~f =
  Array.iteri
    (fun i n ->
      if n > 0 then
        let lo, hi = bounds t i in
        f ~lo ~hi ~count:n)
    t.counts

let checksum t =
  let acc = ref 17 in
  Array.iteri
    (fun i n ->
      if n > 0 then acc := (((!acc * 31) + i) * 31) + n land max_int)
    t.counts;
  ((!acc * 31) + t.sum) land max_int
