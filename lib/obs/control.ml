type config = {
  trace : bool;
  provenance : bool;
  cprof : bool;
  capacity : int;
  probe_on_clock : bool;
}

let off =
  {
    trace = false;
    provenance = false;
    cprof = false;
    capacity = 65536;
    probe_on_clock = false;
  }

let enabled c = c.trace || c.provenance || c.cprof

type t = {
  tracer : Tracer.t;
  prov : Provenance.t option;
  cprof : Cprof.t option;
}

let create config ~probe ~charge ~now =
  let tracer =
    if config.trace then
      let probe = if config.probe_on_clock then probe else 0 in
      Tracer.create ~probe ~charge ~capacity:config.capacity ()
    else Tracer.null
  in
  let prov = if config.provenance then Some (Provenance.create ~now ()) else None in
  let cprof = if config.cprof then Some (Cprof.create ()) else None in
  { tracer; prov; cprof }
