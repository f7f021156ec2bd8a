(* Reading and writing BENCH_results.json: the machine-readable side
   channel of the bench driver. A results file holds a *trajectory* — a
   list of runs, one appended per invocation — so [compare.exe] can diff
   any two points of it. Every figure recorded is on the virtual clock
   and held to the determinism contract; host time belongs to perf/.

   One schema serves every bench section: a run is a list of cells, each
   naming its section, a key unique within that section, and its metrics
   as printed text. Text keeps 63-bit checksums and sums exact, and
   compare.exe checks identity without knowing what a metric means. The
   parser is a minimal recursive-descent JSON reader covering what the
   writer emits. *)

type cell = {
  section : string;
  key : string;  (* unique within [section] *)
  metrics : (string * string) list;  (* metric name -> printed value *)
}

type run = {
  jobs : int;
  scale_factor : float;
  config : string list;
      (* the non-default knobs the run applied, sorted; [] for the
         default configuration *)
  cells : cell list;
}

(* --- JSON values --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents buf
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad unicode escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?' (* the writer never emits these *)
              | None -> fail "bad unicode escape");
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_ ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items (v :: acc)
        | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      items []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let field () =
        skip_ws ();
        let k = string_ () in
        skip_ws ();
        expect ':';
        let v = value () in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            fields (kv :: acc)
        | Some '}' ->
            incr pos;
            Obj (List.rev (kv :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      fields []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

(* --- results files --- *)

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let field name = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> fail "missing field %S" name)
  | _ -> fail "expected an object holding %S" name

let num name j =
  match field name j with Num f -> f | _ -> fail "expected a number for %S" name

let str name j =
  match field name j with Str s -> s | _ -> fail "expected a string for %S" name

let arr name j =
  match field name j with Arr l -> l | _ -> fail "expected an array for %S" name

(* An object whose values are all strings, in file order. *)
let strings name j =
  match field name j with
  | Obj kvs ->
      List.map
        (fun (k, v) ->
          match v with
          | Str s -> (k, s)
          | _ -> fail "expected a string for %S in %S" k name)
        kvs
  | _ -> fail "expected an object for %S" name

let string_list name j =
  List.map
    (function Str s -> s | _ -> fail "expected strings in %S" name)
    (arr name j)

let cell_of_json j =
  {
    section = str "section" j;
    key = str "key" j;
    metrics = strings "metrics" j;
  }

let run_of_json j =
  let cells = List.map cell_of_json (arr "cells" j) in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen (c.section, c.key) then
        fail "duplicate cell %s %s" c.section c.key;
      Hashtbl.add seen (c.section, c.key) ())
    cells;
  {
    jobs = int_of_float (num "jobs" j);
    scale_factor = num "scale_factor" j;
    config = string_list "config" j;
    cells;
  }

let read_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.map run_of_json (arr "runs" (parse contents))

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_strings kvs =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
         kvs)
  ^ "}"

let output_run oc r ~last =
  Printf.fprintf oc
    "    {\n\
    \      \"jobs\": %d,\n\
    \      \"scale_factor\": %g,\n\
    \      \"config\": %s,\n\
    \      \"cells\": [\n"
    r.jobs r.scale_factor
    ("["
    ^ String.concat ", "
        (List.map (fun k -> "\"" ^ json_escape k ^ "\"") r.config)
    ^ "]");
  let last_cell = List.length r.cells - 1 in
  List.iteri
    (fun i c ->
      Printf.fprintf oc
        "        {\"section\": \"%s\", \"key\": \"%s\", \"metrics\": %s}%s\n"
        (json_escape c.section) (json_escape c.key) (json_strings c.metrics)
        (if i = last_cell then "" else ","))
    r.cells;
  Printf.fprintf oc "      ]\n    }%s\n" (if last then "" else ",")

let tmp_of path = path ^ ".tmp"

(* Raises [Sys_error] where [write_file path] could not write. *)
let check_writable path =
  close_out (open_out (tmp_of path));
  Sys.remove (tmp_of path)

(* Written to a temporary file and renamed over [path], so a failed
   write never leaves a truncated trajectory behind. *)
let write_file path runs =
  let tmp = tmp_of path in
  let oc = open_out tmp in
  Printf.fprintf oc "{\n  \"runs\": [\n";
  let last = List.length runs - 1 in
  List.iteri (fun i r -> output_run oc r ~last:(i = last)) runs;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Sys.rename tmp path
