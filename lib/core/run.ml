type obs = {
  trace : bool;
  report : string option;
  perfetto : string option;
  prom : string option;
  ledger : string option;
}

let no_obs =
  { trace = false; report = None; perfetto = None; prom = None;
    ledger = None }

let prog = ref "thermoplace"
let command = ref ""
let ledger = ref None
let fingerprint = ref ""
let config = ref []
let phases = ref []
let peak_rise_k = ref None
let plan_hash = ref None
let t0 = ref 0.0

let phase name f =
  let s = Unix.gettimeofday () in
  let r = f () in
  phases := !phases @ [ (name ^ "_ms", (Unix.gettimeofday () -. s) *. 1e3) ];
  r

let set_fingerprint fp = fingerprint := fp
let set_peak k = peak_rise_k := Some k
let set_plan inserted_after = plan_hash := Some (Technique.plan_hash inserted_after)
let ledger_path () = !ledger

let begin_ ~prog:p ~command:c ~obs ~config:cfg =
  if obs.trace || obs.report <> None || obs.perfetto <> None then
    Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Obs.Log.reset ();
  Thermal.Cg.clear_histories ();
  prog := p;
  command := c;
  ledger := Obs.Ledger.resolve_path ?path:obs.ledger ();
  fingerprint := "";
  config := cfg;
  phases := [];
  peak_rise_k := None;
  plan_hash := None;
  t0 := Unix.gettimeofday ()

let record ?error ~exit_code () =
  match !ledger with
  | None -> ()
  | Some path ->
    let cg_iterations =
      Option.map
        (fun h -> int_of_float h.Obs.Metrics.sum)
        (Obs.Metrics.histogram "thermal.cg.iterations")
    in
    let phases_ms =
      !phases @ [ ("total_ms", (Unix.gettimeofday () -. !t0) *. 1e3) ]
    in
    let record =
      Obs.Ledger.make_record ~command:!command ~fingerprint:!fingerprint
        ~config:!config ~phases_ms ?cg_iterations ?peak_rise_k:!peak_rise_k
        ?plan_hash:!plan_hash ~metrics:(Obs.Metrics.summary_json ()) ?error
        ~outcome:(if exit_code = 0 then "ok" else "error")
        ~exit_code ()
    in
    (try Obs.Ledger.append ~path record
     with e ->
       Printf.eprintf "%s: cannot append to ledger %s: %s\n" !prog path
         (Printexc.to_string e))

(* Write one export file; 1 (after a one-line message) when it cannot. *)
let export what path write =
  match path with
  | None -> 0
  | Some path ->
    (match write path with
     | () ->
       Printf.printf "wrote %s %s\n" what path;
       0
     | exception Sys_error msg ->
       Printf.eprintf "%s: cannot write %s: %s\n" !prog what msg;
       1)

let export_all obs sections =
  if obs.trace then Format.eprintf "%a" Obs.Trace.pp_tree ();
  let prom = export "prometheus metrics" obs.prom Obs.Prom.write_file in
  let perfetto = export "perfetto trace" obs.perfetto Obs.Perfetto.write_file in
  let report =
    export "report" obs.report (fun path ->
        Obs.Report.write_file path
          (Obs.Report.make ~command:!command ~config:!config
             ~sections:
               (sections @ [ ("convergence", Thermal.Cg.histories_json ()) ])
             ()))
  in
  if report <> 0 then report else if perfetto <> 0 then perfetto else prom

let run ?(prog = "thermoplace") ~command ~obs ~config body =
  begin_ ~prog ~command ~obs ~config;
  match body () with
  | status, sections ->
    let exported = export_all obs sections in
    let status = if exported <> 0 then exported else status in
    record ~exit_code:status ();
    status
  | exception Robust.Error.Error e ->
    let msg = Robust.Error.to_string e in
    Printf.eprintf "%s: %s\n" prog msg;
    let code = Robust.Error.exit_code e in
    record ~error:msg ~exit_code:code ();
    code
