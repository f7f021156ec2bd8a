type t = {
  classes : Clazz.t array;
  methods : Meth.t array;
  (* Dispatch targets, row-major: [class * selector_count + selector]
     holds the target's method id, or -1 where the class does not
     understand the selector. Flat ints, so the VM's virtual calls and
     guards read one word. *)
  dispatch_ids : int array;
  (* Field count per class, read by the VM's [New]. *)
  field_counts : int array;
  some_ids : Ids.Method_id.t option array;
      (* [Some id] per method id, so {!dispatch} allocates nothing *)
  selector_names : string array;
  global_names : string array;
  main : Ids.Method_id.t;
  (* Class-hierarchy facts, fixed at [seal] so readers on any domain
     share them without synchronisation. *)
  impls : Ids.Method_id.t list array;  (* [selector], ascending ids *)
  cones : Clazz.t array array;  (* [class]: itself and every subclass *)
}

let classes p = p.classes
let methods p = p.methods
let clazz p (cid : Ids.Class_id.t) = p.classes.((cid :> int))
let meth p (mid : Ids.Method_id.t) = p.methods.((mid :> int))
let main p = p.main
let global_count p = Array.length p.global_names
let selector_name p (s : Ids.Selector.t) = p.selector_names.((s :> int))
let selector_count p = Array.length p.selector_names

let dispatch p (cid : Ids.Class_id.t) (sel : Ids.Selector.t) =
  let m =
    p.dispatch_ids.(((cid :> int) * Array.length p.selector_names)
                    + (sel :> int))
  in
  if m < 0 then None else p.some_ids.(m)

let dispatch_ids p = p.dispatch_ids
let field_counts p = p.field_counts

let implementations p (sel : Ids.Selector.t) = p.impls.((sel :> int))
let cone p (cid : Ids.Class_id.t) = p.cones.((cid :> int))

let monomorphic_target p sel =
  match implementations p sel with [ m ] -> Some m | [] | _ :: _ :: _ -> None

let is_subclass p ~sub ~super =
  let rec walk cid =
    Ids.Class_id.equal cid super
    ||
    match (clazz p cid).parent with None -> false | Some up -> walk up
  in
  walk sub

let find_class p name =
  let n = Array.length p.classes in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal p.classes.(i).Clazz.name name then p.classes.(i)
    else find (i + 1)
  in
  find 0

let find_method p ~cls ~name =
  let c = find_class p cls in
  let n = Array.length p.methods in
  (* Front ends may mangle arity into the stored name ("get/1"); accept
     both the exact and the mangled form. *)
  let matches stored =
    String.equal stored name
    ||
    let prefix = name ^ "/" in
    String.length stored > String.length prefix
    && String.equal (String.sub stored 0 (String.length prefix)) prefix
  in
  let rec find i =
    if i >= n then raise Not_found
    else
      let m = p.methods.(i) in
      if Ids.Class_id.equal m.Meth.owner c.Clazz.id && matches m.name then m
      else find (i + 1)
  in
  find 0

let class_count p = Array.length p.classes
let method_count p = Array.length p.methods

let total_bytecodes p =
  Array.fold_left (fun acc m -> acc + Meth.size_units m) 0 p.methods

let pp fmt p =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun (c : Clazz.t) ->
      Format.fprintf fmt "class %s" c.name;
      (match c.parent with
      | Some up -> Format.fprintf fmt " extends %s" (clazz p up).Clazz.name
      | None -> ());
      Format.fprintf fmt "@,";
      Array.iter
        (fun (m : Meth.t) ->
          if Ids.Class_id.equal m.owner c.id then
            Format.fprintf fmt "  @[<v>%a:@,%a@]@," Meth.pp m Meth.pp_body m)
        p.methods)
    p.classes;
  Format.fprintf fmt "@]"

module Builder = struct
  type pending_method = {
    pm_id : Ids.Method_id.t;
    pm_owner : Ids.Class_id.t;
    pm_name : string;
    pm_selector : Ids.Selector.t;
    pm_kind : Meth.kind;
    pm_arity : int;
    pm_returns : bool;
    mutable pm_body : (int * Instr.t array) option;  (* max_locals, body *)
  }

  type t = {
    mutable b_classes : Clazz.t list;  (* reversed *)
    mutable b_class_count : int;
    mutable b_methods : pending_method list;  (* reversed *)
    mutable b_method_count : int;
    b_selectors : (string, Ids.Selector.t) Hashtbl.t;
    mutable b_selector_names : string list;  (* reversed *)
    mutable b_selector_count : int;
    b_globals : (string, int) Hashtbl.t;
    mutable b_global_names : string list;  (* reversed *)
  }

  let create () =
    {
      b_classes = [];
      b_class_count = 0;
      b_methods = [];
      b_method_count = 0;
      b_selectors = Hashtbl.create 64;
      b_selector_names = [];
      b_selector_count = 0;
      b_globals = Hashtbl.create 16;
      b_global_names = [];
    }

  let intern_selector b name =
    match Hashtbl.find_opt b.b_selectors name with
    | Some s -> s
    | None ->
        let s = Ids.Selector.of_int b.b_selector_count in
        Hashtbl.add b.b_selectors name s;
        b.b_selector_names <- name :: b.b_selector_names;
        b.b_selector_count <- b.b_selector_count + 1;
        s

  let find_built_class b (cid : Ids.Class_id.t) =
    let idx = b.b_class_count - 1 - (cid :> int) in
    List.nth b.b_classes idx

  let declare_class b ~name ~parent ~fields =
    List.iter
      (fun (c : Clazz.t) ->
        if String.equal c.name name then
          invalid_arg (Printf.sprintf "Builder: duplicate class %s" name))
      b.b_classes;
    let inherited =
      match parent with
      | None -> [||]
      | Some up -> (find_built_class b up).Clazz.fields
    in
    let id = Ids.Class_id.of_int b.b_class_count in
    let cls =
      {
        Clazz.id;
        name;
        parent;
        fields = Array.append inherited (Array.of_list fields);
        own_methods = [];
      }
    in
    b.b_classes <- cls :: b.b_classes;
    b.b_class_count <- b.b_class_count + 1;
    id

  let declare_global b name =
    match Hashtbl.find_opt b.b_globals name with
    | Some slot -> slot
    | None ->
        let slot = Hashtbl.length b.b_globals in
        Hashtbl.add b.b_globals name slot;
        b.b_global_names <- name :: b.b_global_names;
        slot

  let replace_class b (cls : Clazz.t) =
    b.b_classes <-
      List.map
        (fun (c : Clazz.t) ->
          if Ids.Class_id.equal c.id cls.id then cls else c)
        b.b_classes

  let declare_method b ~owner ~name ~kind ~arity ~returns =
    let sel = intern_selector b name in
    let id = Ids.Method_id.of_int b.b_method_count in
    (match kind with
    | Meth.Instance ->
        let cls = find_built_class b owner in
        if List.mem_assoc sel cls.Clazz.own_methods then
          invalid_arg
            (Printf.sprintf "Builder: duplicate instance method %s.%s"
               cls.Clazz.name name);
        replace_class b
          { cls with Clazz.own_methods = (sel, id) :: cls.Clazz.own_methods }
    | Meth.Static -> ());
    let pm =
      {
        pm_id = id;
        pm_owner = owner;
        pm_name = name;
        pm_selector = sel;
        pm_kind = kind;
        pm_arity = arity;
        pm_returns = returns;
        pm_body = None;
      }
    in
    b.b_methods <- pm :: b.b_methods;
    b.b_method_count <- b.b_method_count + 1;
    id

  let set_body b (mid : Ids.Method_id.t) ~max_locals body =
    let idx = b.b_method_count - 1 - (mid :> int) in
    let pm = List.nth b.b_methods idx in
    pm.pm_body <- Some (max_locals, body)

  let seal b ~(main : Ids.Method_id.t) =
    let classes = Array.of_list (List.rev b.b_classes) in
    let methods =
      List.rev_map
        (fun pm ->
          match pm.pm_body with
          | None ->
              invalid_arg
                (Printf.sprintf "Builder.seal: method %s has no body"
                   pm.pm_name)
          | Some (max_locals, body) ->
              {
                Meth.id = pm.pm_id;
                owner = pm.pm_owner;
                name = pm.pm_name;
                selector = pm.pm_selector;
                kind = pm.pm_kind;
                arity = pm.pm_arity;
                returns = pm.pm_returns;
                body;
                max_locals;
                max_stack = -1;
              })
        b.b_methods
      |> Array.of_list
    in
    let nsel = b.b_selector_count in
    let dispatch_ids = Array.make (Array.length classes * nsel) (-1) in
    Array.iteri
      (fun k (c : Clazz.t) ->
        (* Walk from the root down so children override inherited slots. *)
        let rec chain (c : Clazz.t) =
          match c.parent with
          | None -> [ c ]
          | Some up -> chain classes.((up :> int)) @ [ c ]
        in
        List.iter
          (fun (c : Clazz.t) ->
            List.iter
              (fun ((sel : Ids.Selector.t), (mid : Ids.Method_id.t)) ->
                dispatch_ids.((k * nsel) + (sel :> int)) <- (mid :> int))
              c.own_methods)
          (chain c))
      classes;
    let impls =
      (* A declared instance method is its own class's dispatch target,
         and every dispatch target is declared somewhere: the distinct
         targets of a selector are exactly its declarations. *)
      let decls = Array.make nsel [] in
      Array.iter
        (fun (c : Clazz.t) ->
          List.iter
            (fun ((sel : Ids.Selector.t), mid) ->
              decls.((sel :> int)) <- mid :: decls.((sel :> int)))
            c.own_methods)
        classes;
      Array.map (List.sort Ids.Method_id.compare) decls
    in
    let cones =
      (* Each class joins the cone of itself and every ancestor; walking
         the classes backwards leaves each cone in ascending id order. *)
      let members = Array.make (Array.length classes) [] in
      for k = Array.length classes - 1 downto 0 do
        let rec up (cid : Ids.Class_id.t) =
          members.((cid :> int)) <- classes.(k) :: members.((cid :> int));
          Option.iter up classes.((cid :> int)).Clazz.parent
        in
        up classes.(k).Clazz.id
      done;
      Array.map Array.of_list members
    in
    let main_meth = methods.((main :> int)) in
    (match (main_meth.Meth.kind, main_meth.Meth.arity) with
    | Meth.Static, 0 -> ()
    | (Meth.Static | Meth.Instance), _ ->
        invalid_arg "Builder.seal: main must be a parameterless static method");
    {
      classes;
      methods;
      dispatch_ids;
      field_counts = Array.map Clazz.field_count classes;
      some_ids = Array.map (fun (m : Meth.t) -> Some m.Meth.id) methods;
      selector_names = Array.of_list (List.rev b.b_selector_names);
      global_names = Array.of_list (List.rev b.b_global_names);
      main;
      impls;
      cones;
    }
end
