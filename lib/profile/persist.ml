open Acsi_bytecode

exception Malformed of string

let header = "acsi-profile 1"

let to_string dcg =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  (* Sort for stable output. *)
  let entries = ref [] in
  Dcg.iter dcg ~f:(fun trace w -> entries := (trace, w) :: !entries);
  let entries = List.sort (fun (a, _) (b, _) -> Trace.compare a b) !entries in
  List.iter
    (fun (trace, w) ->
      Buffer.add_string buf
        (Printf.sprintf "trace %d %.6f" (trace.Trace.callee :> int) w);
      Array.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf " %d:%d" (e.Trace.caller :> int) e.Trace.callsite))
        trace.Trace.chain;
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let parse_entry word =
  match String.split_on_char ':' word with
  | [ caller; callsite ] -> (
      match (int_of_string_opt caller, int_of_string_opt callsite) with
      | Some c, Some s when c >= 0 && s >= 0 ->
          { Trace.caller = Ids.Method_id.of_int c; callsite = s }
      | _ -> raise (Malformed ("bad chain entry: " ^ word)))
  | _ -> raise (Malformed ("bad chain entry: " ^ word))

let of_string s =
  let dcg = Dcg.create () in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | first :: _ when String.equal (String.trim first) header -> ()
  | _ -> raise (Malformed "missing header"));
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if lineno > 0 && String.length line > 0 then
        match String.split_on_char ' ' line with
        | "trace" :: callee :: weight :: (_ :: _ as chain) -> (
            match (int_of_string_opt callee, float_of_string_opt weight) with
            | Some callee, Some weight
              when callee >= 0 && weight >= 0.0 && Float.is_finite weight ->
                let trace =
                  Trace.of_chain
                    ~callee:(Ids.Method_id.of_int callee)
                    ~chain:(Array.of_list (List.map parse_entry chain))
                in
                (* weights restore as whole samples, at least one; the
                   sub-sample fraction lost to rounding is below
                   profiling noise. One addition of the count equals
                   that many single samples for counts below 2^53. *)
                Dcg.add_weight dcg trace (Float.max 1.0 (Float.round weight))
            | _ -> raise (Malformed ("bad trace line: " ^ line)))
        | _ -> raise (Malformed ("bad line: " ^ line)))
    lines;
  dcg

let save path dcg =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string dcg))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
