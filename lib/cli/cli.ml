open Cmdliner
module Config = Acsi_core.Config
module Policy = Acsi_policy.Policy
module System = Acsi_aos.System
module Workloads = Acsi_workloads.Workloads

let msg fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt

let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ -> msg "invalid value '%s', must be >= %d" s lo
    | None -> msg "invalid value '%s', expected an integer" s
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 && Float.is_finite f -> Ok f
    | Some f when Float.is_finite f -> msg "invalid value '%s', must be > 0" s
    | Some _ -> msg "invalid value '%s', must be finite" s
    | None -> msg "invalid value '%s', expected a number" s
  in
  Arg.conv (parse, Format.pp_print_float)

let policy =
  let parse s =
    match Policy.of_string s with
    | Some p -> Ok p
    | None -> msg "invalid policy '%s' (see --help)" s
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Policy.to_string p))

let find_bench name =
  match Workloads.find name with
  | spec -> Ok spec
  | exception Not_found -> msg "unknown benchmark '%s' (use --list)" name

let pp_bench ppf (spec : Workloads.spec) =
  Format.pp_print_string ppf spec.Workloads.name

let bench = Arg.conv (find_bench, pp_bench)

(* Empty names are skipped, so "db,,jess" and a trailing comma are
   fine; the first unknown name is the diagnostic. *)
let benches =
  let rec parse = function
    | [] -> Ok []
    | "" :: rest -> parse rest
    | name :: rest ->
        Result.bind (find_bench name) (fun spec ->
            Result.map (List.cons spec) (parse rest))
  in
  Arg.conv
    ( (fun s -> parse (String.split_on_char ',' s)),
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
        pp_bench )

let pool_policy =
  let parse s =
    match System.queue_policy_of_string s with
    | Some p -> Ok p
    | None -> msg "unknown value '%s' (fifo|hot)" s
  in
  let pp ppf p = Format.pp_print_string ppf (System.queue_policy_name p) in
  Arg.conv (parse, pp)

let policy_arg =
  Arg.(
    value
    & opt policy (Policy.Fixed 3)
    & info [ "p"; "policy" ]
        ~doc:
          "Context-sensitivity policy: cins, fixed, paramLess, class, large, \
           hybrid1, hybrid2, resolve; optionally with (max=N).")

let bench_arg ~default doc =
  Arg.(value & opt bench (Workloads.find default) & info [ "b"; "bench" ] ~doc)

let benches_arg ~default doc =
  Arg.(
    value
    & opt benches (List.map Workloads.find default)
    & info [ "b"; "bench" ] ~doc)

let scale_arg =
  Arg.(
    value
    & opt (some (at_least 1)) None
    & info [ "s"; "scale" ] ~doc:"Workload scale (default per benchmark).")

let scale_for (spec : Workloads.spec) scale =
  Option.value scale ~default:spec.Workloads.default_scale

let jobs_arg ?(names = [ "j"; "jobs" ]) ~default doc =
  Arg.(value & opt (at_least 1) default & info names ~doc)

let static_seed_arg =
  Arg.(
    value & flag
    & info [ "static-seed" ]
        ~doc:
          "Enable the static pre-warm oracle: interprocedural summaries \
           computed at class-load time drive inlining at method install, \
           before any profile sample exists (provenance records these \
           under the static source).")

let speculate_arg =
  Arg.(
    value & flag
    & info [ "speculate" ]
        ~doc:
          "Enable guard-free speculative inlining: virtual sites \
           monomorphic over the loaded class universe whose receiver \
           pre-exists the activation are inlined with no guard; a class \
           load that breaks the recorded assumption (or a guard storm) \
           deoptimizes the method through its frame-state table. Implies \
           on-stack replacement in both directions.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Log adaptive-system events (compilations, rule rebuilds).")

let config ~policy ~static_seed ~speculate =
  let cfg = Config.default ~policy in
  {
    cfg with
    Config.aos =
      {
        cfg.Config.aos with
        System.static_seed;
        speculate;
        enable_osr = speculate || cfg.Config.aos.System.enable_osr;
      };
  }

let config_term ?(policy = policy_arg) ?(speculate = speculate_arg) () =
  Term.(
    const (fun policy static_seed speculate ->
        config ~policy ~static_seed ~speculate)
    $ policy $ static_seed_arg $ speculate)

let check_writable path =
  let existed = Sys.file_exists path in
  close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 path);
  if not existed then Sys.remove path
