open Acsi_bytecode

(* Alongside the main trace table, an incremental secondary index keyed on
   the innermost (caller, callsite) of each trace. Buckets share the
   weight refs of the main table, so decay of a weight is visible through
   the index for free; only insertion and pruning maintain it. Per-site
   queries ([site_distribution], [edge_weight]) then touch exactly the
   traces recorded at that site instead of scanning the whole table.

   Each site additionally keeps two sub-indexes over the same weight refs:
   per-callee buckets (every trace of the site recording that callee, at
   any depth) and per-deep-context buckets (every trace with an identical
   chain of length >= 2). These are the "views" the adaptive-resolution
   organizer reads: with them, scanning every site's callee distribution
   and deep-context skew costs one pass over the live traces instead of
   the sites x entries (and contexts x contexts) products a flat table
   forces. Sums are recomputed from the buckets at query time rather than
   maintained as running floats, so a view never drifts from the table it
   indexes. *)

type site = {
  s_traces : float ref Trace.Table.t;
  s_callees : (int, float ref Trace.Table.t) Hashtbl.t;
  s_deep : ((int * int) list, float ref Trace.Table.t) Hashtbl.t;
}

type t = {
  table : float ref Trace.Table.t;
  sites : (int * int, site) Hashtbl.t;
  mutable total : float;
}

type site_view = site

let site_key (trace : Trace.t) =
  let e = trace.Trace.chain.(0) in
  ((e.Trace.caller :> int), e.Trace.callsite)

let ctx_key (trace : Trace.t) =
  Array.to_list trace.Trace.chain
  |> List.map (fun e -> ((e.Trace.caller :> int), e.Trace.callsite))

let create () =
  { table = Trace.Table.create 512; sites = Hashtbl.create 256; total = 0.0 }

let sub_bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some b -> b
  | None ->
      let b = Trace.Table.create 4 in
      Hashtbl.add tbl key b;
      b

let index_insert t trace w =
  let key = site_key trace in
  let site =
    match Hashtbl.find_opt t.sites key with
    | Some s -> s
    | None ->
        let s =
          {
            s_traces = Trace.Table.create 8;
            s_callees = Hashtbl.create 4;
            s_deep = Hashtbl.create 4;
          }
        in
        Hashtbl.add t.sites key s;
        s
  in
  Trace.Table.add site.s_traces trace w;
  Trace.Table.add (sub_bucket site.s_callees (trace.Trace.callee :> int)) trace w;
  if Array.length trace.Trace.chain >= 2 then
    Trace.Table.add (sub_bucket site.s_deep (ctx_key trace)) trace w

let index_remove t (trace : Trace.t) =
  let key = site_key trace in
  match Hashtbl.find_opt t.sites key with
  | None -> ()
  | Some site ->
      Trace.Table.remove site.s_traces trace;
      let drop tbl k =
        match Hashtbl.find_opt tbl k with
        | None -> ()
        | Some b ->
            Trace.Table.remove b trace;
            if Trace.Table.length b = 0 then Hashtbl.remove tbl k
      in
      drop site.s_callees (trace.Trace.callee :> int);
      if Array.length trace.Trace.chain >= 2 then
        drop site.s_deep (ctx_key trace);
      if Trace.Table.length site.s_traces = 0 then Hashtbl.remove t.sites key

let add_sample t trace =
  (match Trace.Table.find_opt t.table trace with
  | Some w -> w := !w +. 1.0
  | None ->
      let w = ref 1.0 in
      Trace.Table.add t.table trace w;
      index_insert t trace w);
  t.total <- t.total +. 1.0

let add_weight t trace w0 =
  if w0 > 0.0 then begin
    (match Trace.Table.find_opt t.table trace with
    | Some w -> w := !w +. w0
    | None ->
        let w = ref w0 in
        Trace.Table.add t.table trace w;
        index_insert t trace w);
    t.total <- t.total +. w0
  end

let merge ~into src =
  Trace.Table.iter (fun trace w -> add_weight into trace !w) src.table

let weight t trace =
  match Trace.Table.find_opt t.table trace with
  | Some w -> !w
  | None -> 0.0

let total_weight t = t.total
let size t = Trace.Table.length t.table

let decay t ~factor ~prune_below =
  (* Doomed weights are carried out of the scan so pruning needs no
     re-probe; the total is reduced entry by entry, in the same order the
     entries are removed. *)
  let doomed = ref [] in
  Trace.Table.iter
    (fun trace w ->
      w := !w *. factor;
      if !w < prune_below then doomed := (trace, w) :: !doomed)
    t.table;
  t.total <- t.total *. factor;
  List.iter
    (fun ((trace : Trace.t), w) ->
      t.total <- t.total -. !w;
      Trace.Table.remove t.table trace;
      index_remove t trace)
    !doomed;
  if t.total < 0.0 then t.total <- 0.0

let hot t ~threshold =
  if t.total <= 0.0 then []
  else
    let cut = threshold *. t.total in
    let acc = ref [] in
    Trace.Table.iter
      (fun trace w -> if !w > cut then acc := (trace, !w) :: !acc)
      t.table;
    List.sort (fun (_, a) (_, b) -> Float.compare b a) !acc

let iter t ~f = Trace.Table.iter (fun trace w -> f trace !w) t.table

let site_entry_count t ~(caller : Ids.Method_id.t) ~callsite =
  match Hashtbl.find_opt t.sites ((caller :> int), callsite) with
  | Some site -> Trace.Table.length site.s_traces
  | None -> 0

let site_count t = Hashtbl.length t.sites

(* --- site views --- *)

let sum_bucket b = Trace.Table.fold (fun _ w acc -> acc +. !w) b 0.0
let max_bucket b = Trace.Table.fold (fun _ w acc -> Float.max acc !w) b 0.0

let iter_sites t ~f =
  Hashtbl.iter
    (fun (caller, callsite) site ->
      f ~caller:(Ids.Method_id.of_int caller) ~callsite site)
    t.sites

let view_callee_count (v : site_view) = Hashtbl.length v.s_callees
let view_total (v : site_view) = sum_bucket v.s_traces

let view_callee_weights (v : site_view) =
  Hashtbl.fold
    (fun callee b acc -> (Ids.Method_id.of_int callee, sum_bucket b) :: acc)
    v.s_callees []

let view_top_callee_weight (v : site_view) =
  Hashtbl.fold
    (fun _ b acc -> Float.max acc (sum_bucket b))
    v.s_callees 0.0

let view_deep_exists (v : site_view) ~f =
  (* Within one deep context the traces differ only by callee (the chain
     is the bucket key), so the context's top callee weight is the
     heaviest trace in the bucket. *)
  Hashtbl.fold
    (fun _ b acc -> acc || f ~total:(sum_bucket b) ~top:(max_bucket b))
    v.s_deep false

let site_view t ~(caller : Ids.Method_id.t) ~callsite =
  Hashtbl.find_opt t.sites ((caller :> int), callsite)

let site_distribution t ~(caller : Ids.Method_id.t) ~callsite =
  match site_view t ~caller ~callsite with
  | None -> []
  | Some v ->
      view_callee_weights v
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let edge_weight t ~(caller : Ids.Method_id.t) ~callsite
    ~(callee : Ids.Method_id.t) =
  match Hashtbl.find_opt t.sites ((caller :> int), callsite) with
  | None -> 0.0
  | Some site -> (
      match Hashtbl.find_opt site.s_callees ((callee :> int)) with
      | None -> 0.0
      | Some b -> sum_bucket b)
