(* A program whose heap holds every shape of the value layout: objects
   of 0, 1, 8, 9 and 20 fields (literal blocks up to 8 fields, an
   [Array.make] block past that) and arrays of length 0, 1 and 1000
   (the last allocated directly in the major heap). Holders of each
   shape are allocated first and survive churn that promotes them; each
   round then stores young objects and arrays into them, through field
   and element stores, from [main] and from methods. The program prints
   checksums read back from every holder, so a young value a store
   failed to remember shows up as a crash or as a different output. *)

open Acsi_lang.Dsl

let f k = Printf.sprintf "f%d" k
let name k = Printf.sprintf "K%d" k

(* Each class but [K0] has [put], storing into its last field, and
   [get], reading it. *)
let classes =
  List.map
    (fun k ->
      cls (name k)
        ~fields:(List.init k f)
        (if k = 0 then []
         else
           [
             meth "put" [ "v" ] ~returns:false [ set_thisf (f (k - 1)) (v "v") ];
             meth "get" [] ~returns:true [ ret (thisf (f (k - 1))) ];
           ]))
    [ 0; 1; 8; 9; 20 ]

let holders = [ ("h8", 8); ("h9", 9); ("h20", 20) ]

(* A fresh [K1] boxing [n]. *)
let box n = [ let_ "y" (new_ "K1" []); setf "K1" (v "y") (f 0) n ]

(* [s] := [s * 31 + e.f0], or [s * 31] when [e] is 0 (never written). *)
let add_box e =
  [
    let_ "e" e;
    if_ (ne (v "e") (i 0))
      [ let_ "s" (add (mul (v "s") (i 31)) (fld "K1" (v "e") (f 0))) ]
      [ let_ "s" (mul (v "s") (i 31)) ];
  ]

let rounds = 300

let main =
  [
    let_ "big" (arr_new (i 1000));
    let_ "one" (arr_new (i 1));
    let_ "empties" (arr_new (i 8));
    let_ "zeros" (arr_new (i 8));
  ]
  @ List.map (fun (h, k) -> let_ h (new_ (name k) [])) holders
  @ [
      for_ "r" (i 0) (i rounds)
        ([
           (* Churn: short-lived values of every shape, so the holders
              above are promoted before the stores below. *)
           for_ "j" (i 0) (i 12)
             [
               let_ "g" (new_ "K20" []);
               setf "K20" (v "g") (f 19) (new_ "K9" []);
               let_ "g" (new_ "K8" []);
               setf "K8" (v "g") (f 3) (arr_new (i 30));
               let_ "g" (new_ "K0" []);
               let_ "g" (arr_new (i 1));
             ];
         ]
        @ box (v "r")
        @ [
            arr_set (v "big") (rem (mul (v "r") (i 7)) (i 1000)) (v "y");
            arr_set (v "one") (i 0) (v "y");
            arr_set (v "empties") (band (v "r") (i 7)) (arr_new (i 0));
            arr_set (v "zeros") (band (v "r") (i 7)) (new_ "K0" []);
          ]
        @ List.concat_map
            (fun (h, k) ->
              box (add (v "r") (i k))
              @ [
                  setf (name k) (v h) (f (k / 2)) (v "y");
                  expr (inv (v h) "put" [ v "y" ]);
                ])
            holders);
      let_ "s" (i 0);
      for_ "j" (i 0) (i 1000) (add_box (arr_get (v "big") (v "j")));
      print (v "s");
      let_ "s" (i 0);
    ]
  @ add_box (arr_get (v "one") (i 0))
  @ List.concat_map
      (fun (h, k) ->
        List.concat_map
          (fun n -> add_box (fld (name k) (v h) (f n)))
          (List.init k Fun.id)
        @ add_box (inv (v h) "get" []))
      holders
  @ [
      print (v "s");
      (* Every empty array and 0-field object is a value of its own. *)
      let_ "s" (i 0);
      for_ "a" (i 0) (i 8)
        [
          for_ "b" (i 0) (i 8)
            [
              if_
                (eq (arr_get (v "empties") (v "a"))
                   (arr_get (v "empties") (v "b")))
                [ let_ "s" (add (v "s") (i 1)) ]
                [];
              if_
                (eq (arr_get (v "zeros") (v "a")) (arr_get (v "zeros") (v "b")))
                [ let_ "s" (add (v "s") (i 100)) ]
                [];
            ];
          let_ "s" (add (v "s") (arr_len (arr_get (v "empties") (v "a"))));
        ];
      print (v "s");
    ]

let program () = Acsi_lang.Compile.prog (prog classes main)
