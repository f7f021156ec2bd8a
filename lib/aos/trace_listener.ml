open Acsi_bytecode
open Acsi_profile

type stats = {
  mutable samples : int;
  mutable frames_walked : int;
  mutable callee_parameterless : int;
  mutable param_stop_within_5 : int;
  mutable class_stop_within_2 : int;
  mutable large_needs_4 : int;
  depth_histogram : int array;
}

type t = {
  program : Program.t;
  policy : Acsi_policy.Policy.t;
  flags : Flags.t;
  collect_termination_stats : bool;
  st : stats;
}

let create ?(collect_termination_stats = false) program ~policy ~flags =
  {
    program;
    policy;
    flags;
    collect_termination_stats;
    st =
      {
        samples = 0;
        frames_walked = 0;
        callee_parameterless = 0;
        param_stop_within_5 = 0;
        class_stop_within_2 = 0;
        large_needs_4 = 0;
        depth_histogram = Array.make 9 0;
      };
  }

let stats t = t.st

(* Instrumentation pass for the §4 in-text statistics: walk up to 5 edges
   regardless of policy and record where each early-termination condition
   would first fire. *)
let record_termination_stats t vm =
  let st = t.st in
  let frames = ref [] in
  let count = ref 0 in
  Acsi_vm.Interp.walk_source_stack vm ~f:(fun mid _pc ->
      frames := mid :: !frames;
      incr count;
      !count < 7);
  match List.rev !frames with
  | [] -> ()
  | callee_id :: callers ->
      let callee = Program.meth t.program callee_id in
      if Meth.is_parameterless callee then
        st.callee_parameterless <- st.callee_parameterless + 1;
      let callers = List.map (Program.meth t.program) callers in
      let param_stop =
        if Meth.is_parameterless callee then Some 1
        else
          let rec find i = function
            | [] -> None
            | c :: rest ->
                if Meth.is_parameterless c then Some i else find (i + 1) rest
          in
          find 1 callers
      in
      (match param_stop with
      | Some d when d <= 5 -> st.param_stop_within_5 <- st.param_stop_within_5 + 1
      | Some _ | None -> ());
      let rec first_matching i pred = function
        | [] -> None
        | c :: rest -> if pred c then Some i else first_matching (i + 1) pred rest
      in
      (match first_matching 1 Meth.is_instance callers with
      | Some d when d <= 2 -> st.class_stop_within_2 <- st.class_stop_within_2 + 1
      | Some _ | None -> ());
      let is_large m =
        match Meth.size_class m with
        | Meth.Large -> true
        | Meth.Tiny | Meth.Small | Meth.Medium -> false
      in
      (match first_matching 1 is_large callers with
      | Some d when d <= 3 -> ()
      | Some _ | None -> st.large_needs_4 <- st.large_needs_4 + 1)

let sample t vm =
  if t.collect_termination_stats then record_termination_stats t vm;
  (* Collect the source frames lazily: [walk_source_stack] visits
     (method, pc) pairs innermost-first; the first is the callee, each
     subsequent pair a caller and the pc of its call site. *)
  let policy = t.policy in
  let max_depth = Acsi_policy.Policy.max_depth policy in
  let adaptive = Acsi_policy.Policy.is_adaptive_resolving policy in
  let callee = ref None in
  let chain_rev = ref [] in
  let chain_len = ref 0 in
  let walked = ref 0 in
  Acsi_vm.Interp.walk_source_stack vm ~f:(fun mid pc ->
      incr walked;
      match !callee with
      | None ->
          callee := Some (Program.meth t.program mid);
          true
      | Some callee_m ->
          let entry = { Trace.caller = mid; callsite = pc } in
          chain_rev := entry :: !chain_rev;
          incr chain_len;
          if !chain_len >= max_depth then false
          else if adaptive then
            (* Deepen only through a flagged sampled edge. *)
            let first =
              match List.rev !chain_rev with e :: _ -> e | [] -> entry
            in
            Flags.flagged t.flags ~caller:first.Trace.caller
              ~callsite:first.Trace.callsite
          else
            Acsi_policy.Policy.should_extend policy t.program ~callee:callee_m
              ~last_caller:(Program.meth t.program mid)
              ~chain_len:!chain_len);
  t.st.frames_walked <- t.st.frames_walked + !walked;
  match (!callee, List.rev !chain_rev) with
  | Some callee_m, (_ :: _ as chain) ->
      t.st.samples <- t.st.samples + 1;
      let depth = min (Array.length t.st.depth_histogram - 1) !chain_len in
      t.st.depth_histogram.(depth) <- t.st.depth_histogram.(depth) + 1;
      Some (Trace.make ~callee:callee_m.Meth.id ~chain, !walked)
  | Some _, [] | None, _ -> None
