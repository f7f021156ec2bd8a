(* Tests for the textual front end: lexing, parsing, execution of parsed
   programs, and diagnostics. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_out = Alcotest.(check (list int))

let run src =
  let program = Acsi_lang.Parser.compile src in
  let vm = Bare_vm.create program in
  Acsi_vm.Interp.run vm;
  Acsi_vm.Interp.output vm

let expect_syntax_error src fragment =
  match run src with
  | _ -> Alcotest.failf "expected a syntax error mentioning %S" fragment
  | exception Acsi_lang.Parser.Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
        in
        go 0
      in
      check_bool (Printf.sprintf "%S mentions %S" msg fragment) true
        (contains msg fragment)

(* --- lexer --- *)

let test_lexer_tokens () =
  let toks = Acsi_lang.Lexer.tokenize "x1 <= 42 // comment\n Cls .. ->" in
  let kinds = List.map (fun t -> t.Acsi_lang.Lexer.token) toks in
  Alcotest.(check bool)
    "token stream" true
    (kinds
    = [
        Acsi_lang.Lexer.Ident "x1";
        Acsi_lang.Lexer.Punct "<=";
        Acsi_lang.Lexer.Int 42;
        Acsi_lang.Lexer.Upper "Cls";
        Acsi_lang.Lexer.Punct "..";
        Acsi_lang.Lexer.Punct "->";
        Acsi_lang.Lexer.Eof;
      ])

let test_lexer_positions () =
  let toks = Acsi_lang.Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      check_int "a line" 1 a.Acsi_lang.Lexer.line;
      check_int "b line" 2 b.Acsi_lang.Lexer.line;
      check_int "b col" 3 b.Acsi_lang.Lexer.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_error () =
  match Acsi_lang.Lexer.tokenize "a $ b" with
  | _ -> Alcotest.fail "expected a lexical error"
  | exception Acsi_lang.Lexer.Error _ -> ()

(* --- parsed program execution --- *)

let test_hello_arithmetic () =
  check_out "arith" [ 10; 1 ]
    (run "main { print 2 + 2 * 4; print 7 % 2; }")

let test_precedence_and_parens () =
  check_out "precedence" [ 14; 20; 1; 0 ]
    (run
       "main { print 2 + 3 * 4; print (2 + 3) * 4; print 1 < 2; print not \
        (3 != 3) and 0; }")

let test_control_flow () =
  check_out "loops" [ 45 ]
    (run
       "main { var s = 0; for k in 0 .. 10 { s = s + k; } print s; }");
  check_out "while" [ 8 ]
    (run
       "main { var x = 1; while (x < 5) { x = x * 2; } print x; }");
  check_out "if else" [ 2 ]
    (run
       "main { var x = 7; if (x > 10) { print 1; } else if (x > 5) { print \
        2; } else { print 3; } }")

let test_classes_and_dispatch () =
  let src =
    {|
    class Animal {
      field weight;
      def init(w) { this.weight = w; }
      def noise() -> int { return 0; }
      def heavy() -> int { return this.weight > 100; }
    }
    class Dog extends Animal {
      def noise() -> int { return 1; }
    }
    class Cat extends Animal {
      def noise() -> int { return 2; }
    }
    main {
      var d = new Dog(120);
      var c = new Cat(4);
      print d.noise();
      print c.noise();
      print d.heavy();
      print c.heavy();
      print d is Animal;
      print c is Dog;
      print d@Animal.weight;
      print d!Animal.noise();
    }
  |}
  in
  check_out "dispatch" [ 1; 2; 1; 0; 1; 0; 120; 0 ] (run src)

let test_statics_arrays_globals () =
  let src =
    {|
    global total;
    class Util {
      static def sum(a) -> int {
        var s = 0;
        for k in 0 .. len(a) { s = s + a[k]; }
        return s;
      }
    }
    main {
      var a = arr(5);
      for k in 0 .. 5 { a[k] = k * k; }
      total = Util.sum(a);
      print total;
    }
  |}
  in
  check_out "arrays+globals" [ 30 ] (run src)

let test_field_assignment_forms () =
  let src =
    {|
    class Box {
      field v;
      def init(v) { this.v = v; }
    }
    main {
      var b = new Box(1);
      b@Box.v = 9;
      print b@Box.v;
    }
  |}
  in
  check_out "typed field set" [ 9 ] (run src)

(* The quickstart's HashMapTest written as source text runs against the
   DSL-built Javalib? No — the textual program is self-contained. *)
let test_self_contained_map_program () =
  let src =
    {|
    class Key {
      field k;
      def init(k) { this.k = k; }
      def hashCode() -> int { return this.k; }
    }
    class Pair {
      field key; field value;
      def init(key, value) { this.key = key; this.value = value; }
    }
    class Table {
      field slots;
      def init(cap) {
        this.slots = arr(cap);
        for i in 0 .. cap { this.slots[i] = null; }
      }
      def put(key, value) {
        var idx = key.hashCode() % len(this.slots);
        this.slots[idx] = new Pair(key, value);
      }
      def get(key) -> int {
        var idx = key.hashCode() % len(this.slots);
        var p = this.slots[idx];
        if (p == null) { return 0 - 1; }
        return p@Pair.value;
      }
    }
    main {
      var t = new Table(8);
      t.put(new Key(3), 33);
      t.put(new Key(5), 55);
      print t.get(new Key(3));
      print t.get(new Key(5));
      print t.get(new Key(6));
    }
  |}
  in
  check_out "map program" [ 33; 55; -1 ] (run src)

(* Parsed programs behave identically under the adaptive system. *)
let test_parsed_program_under_aos () =
  let src =
    {|
    class W {
      static def step(x) -> int { return (x * 3 + 1) & 65535; }
    }
    main {
      var s = 1;
      for k in 0 .. 200000 { s = W.step(s); }
      print s;
    }
  |}
  in
  let program = Acsi_lang.Parser.compile src in
  let base = Bare_vm.create program in
  Acsi_vm.Interp.run base;
  let result =
    Acsi_core.Runtime.run
      (Acsi_core.Config.default ~policy:(Acsi_policy.Policy.Fixed 3))
      program
  in
  Alcotest.(check (list int))
    "same output"
    (Acsi_vm.Interp.output base)
    (Acsi_vm.Interp.output result.Acsi_core.Runtime.vm);
  check_bool "adaptive system optimized it" true
    (result.Acsi_core.Runtime.metrics.Acsi_core.Metrics.opt_methods > 0)

(* --- diagnostics --- *)

let test_error_missing_main () = expect_syntax_error "class A { }" "no 'main'"

let test_error_untyped_field () =
  expect_syntax_error
    "class A { field x; } main { var a = new A(); print a.x; }"
    "needs a class"

let test_error_bad_assignment () =
  expect_syntax_error "main { 1 + 2 = 3; }" "cannot be assigned"

let test_error_unclosed_block () =
  expect_syntax_error "main { print 1;" "expected"

let test_error_duplicate_main () =
  expect_syntax_error "main { } main { }" "duplicate"

let test_error_reports_position () =
  match run "main {\n  print 1;\n  ?\n}" with
  | _ -> Alcotest.fail "expected an error"
  | exception Acsi_lang.Lexer.Error msg ->
      check_bool "mentions line 3" true
        (String.length msg >= 6 && String.equal (String.sub msg 0 6) "line 3")

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "arithmetic" `Quick test_hello_arithmetic;
    Alcotest.test_case "precedence" `Quick test_precedence_and_parens;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "classes and dispatch" `Quick test_classes_and_dispatch;
    Alcotest.test_case "statics, arrays, globals" `Quick
      test_statics_arrays_globals;
    Alcotest.test_case "typed field assignment" `Quick
      test_field_assignment_forms;
    Alcotest.test_case "self-contained map program" `Quick
      test_self_contained_map_program;
    Alcotest.test_case "parsed program under AOS" `Quick
      test_parsed_program_under_aos;
    Alcotest.test_case "error: missing main" `Quick test_error_missing_main;
    Alcotest.test_case "error: untyped field" `Quick test_error_untyped_field;
    Alcotest.test_case "error: bad assignment" `Quick test_error_bad_assignment;
    Alcotest.test_case "error: unclosed block" `Quick test_error_unclosed_block;
    Alcotest.test_case "error: duplicate main" `Quick test_error_duplicate_main;
    Alcotest.test_case "error: position reporting" `Quick
      test_error_reports_position;
  ]
