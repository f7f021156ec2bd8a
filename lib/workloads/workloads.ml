type spec = {
  name : string;
  description : string;
  default_scale : int;
  build : scale:int -> Acsi_bytecode.Program.t;
}

let build_prog ?(globals = []) classes main =
  Acsi_lang.Compile.prog
    (Acsi_lang.Dsl.prog
       ~globals:(Javalib.globals @ globals)
       (Javalib.classes @ classes)
       main)

let all =
  [
    {
      name = "compress";
      description = "Lempel-Ziv-flavoured block compression";
      default_scale = 24;
      build = (fun ~scale -> build_prog Compress.classes (Compress.main ~scale));
    };
    {
      name = "jess";
      description = "forward-chaining expert-system kernel";
      default_scale = 340;
      build =
        (fun ~scale ->
          build_prog ~globals:Jess.globals Jess.classes (Jess.main ~scale));
    };
    {
      name = "db";
      description = "memory-resident database operations";
      default_scale = 220;
      build = (fun ~scale -> build_prog Db.classes (Db.main ~scale));
    };
    {
      name = "javac";
      description = "expression compiler: tokens, parser, AST evaluation";
      default_scale = 300;
      build = (fun ~scale -> build_prog Javac.classes (Javac.main ~scale));
    };
    {
      name = "mpeg";
      description = "fixed-point audio decode kernels";
      default_scale = 14;
      build =
        (fun ~scale -> build_prog Mpegaudio.classes (Mpegaudio.main ~scale));
    };
    {
      name = "mtrt";
      description = "two-thread fixed-point ray caster";
      default_scale = 28;
      build = (fun ~scale -> build_prog Mtrt.classes (Mtrt.main ~scale));
    };
    {
      name = "jack";
      description = "parser generator: recursive grammar expansion x16";
      default_scale = 700;
      build = (fun ~scale -> build_prog Jack.classes (Jack.main ~scale));
    };
    {
      name = "jbb";
      description = "warehouse transaction processing (TPC-C-flavoured mix)";
      default_scale = 210;
      build = (fun ~scale -> build_prog Jbb.classes (Jbb.main ~scale));
    };
  ]

let extended =
  [
    {
      name = "session";
      description = "one short server request (sharded-server unit of load)";
      default_scale = 4;
      build = (fun ~scale -> build_prog Session.classes (Session.main ~scale));
    };
    {
      name = "dispatch";
      description =
        "late-loaded handler subclass: speculative inlining + deopt stress";
      default_scale = 40;
      build =
        (fun ~scale -> build_prog Dispatch.classes (Dispatch.main ~scale));
    };
    {
      name = "richards";
      description = "classic OO task-scheduler benchmark (paper §7 extension)";
      default_scale = 12;
      build =
        (fun ~scale -> build_prog Richards.classes (Richards.main ~scale));
    };
  ]

let find name = List.find (fun s -> String.equal s.name name) (all @ extended)

let scaled s ~scale_factor =
  max 1 (int_of_float (scale_factor *. float_of_int s.default_scale))

let build_all ?(scale_factor = 1.0) () =
  List.map (fun s -> (s.name, s.build ~scale:(scaled s ~scale_factor))) all
