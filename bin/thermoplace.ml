(* thermoplace: command-line driver for the post-placement temperature
   reduction flow.

     thermoplace flow     -- run the full flow and one technique
     thermoplace report   -- netlist / placement / power / thermal summary
     thermoplace maps     -- dump power and thermal maps (matrix or ascii)
     thermoplace sweep    -- Default/ERI/HW reduction-vs-overhead sweep
     thermoplace optimize -- greedy row-budget optimizer (parallel evals)
     thermoplace check    -- run the design invariant suite
     thermoplace export   -- Verilog / LEF / DEF / SPICE / SVG dump
     thermoplace serve    -- batch JSONL job server (queue, deadlines, retry)

     thermoplace history  -- list / show / diff / trend over the run ledger

   Every subcommand but history takes the same observability options (the
   [obs] term) and every design subcommand the same design options (the
   [design] term); Postplace.Run carries each run: exports, ledger record
   and exit status.

   --trace prints the span tree to stderr, --report FILE writes a
   machine-readable JSON run report, --perfetto FILE the merged
   cross-domain span forest as Chrome trace-event JSON (loadable in
   Perfetto / chrome://tracing) and --prom FILE a Prometheus text
   exposition of the metrics registry. Every run also appends one
   record to the JSONL run ledger (config fingerprint, per-phase
   timings, CG iteration totals, peak temperature, plan hash, metrics
   summary, outcome) — --ledger FILE / THERMOPLACE_LEDGER override the
   path, "none" disables.

   Structured failures (Robust.Error) exit with stable per-class codes:
   solver divergence 10, invariant violation 11, worker failure 12,
   corrupt checkpoint 13, queue full 14, deadline exceeded 15 (the last
   two appear per job in serve responses, not as process exits).
   THERMOPLACE_FAULTS arms fault injection. *)

open Cmdliner
module Flow = Postplace.Flow
module Run = Postplace.Run

(* --- validated option converters ----------------------------------------- *)

(* Range errors surface as Cmdliner parse errors (usage + message) instead
   of a downstream Invalid_argument from the flow internals. *)

let int_min ~min name =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" name s))
    | Some v when v < min ->
      Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" name min v))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

let float_range ?min_exclusive ?max_inclusive ~min name =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s: expected a number, got %S" name s))
    | Some v when Float.is_nan v ->
      Error (`Msg (Printf.sprintf "%s: nan is not a valid value" name))
    | Some v when v < min ->
      Error (`Msg (Printf.sprintf "%s must be >= %g (got %g)" name min v))
    | Some v when (match min_exclusive with Some lo -> v <= lo | None -> false) ->
      Error (`Msg (Printf.sprintf "%s must be > %g (got %g)" name
                     (Option.get min_exclusive) v))
    | Some v when (match max_inclusive with Some hi -> v > hi | None -> false) ->
      Error (`Msg (Printf.sprintf "%s must be <= %g (got %g)" name
                     (Option.get max_inclusive) v))
    | Some v -> Ok v
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

(* --- observability options ----------------------------------------------- *)

let obs =
  let trace =
    let doc = "Print the wall-clock span tree of the run to stderr." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let report =
    let doc =
      "Write a machine-readable JSON run report (config, span tree, metrics, \
       warnings, results) to $(docv)."
    in
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let perfetto =
    let doc =
      "Write the run's span forest as Chrome trace-event JSON to $(docv). \
       Spans from every domain appear as separate tracks (tid = domain id); \
       open the file in ui.perfetto.dev or chrome://tracing. Implies span \
       recording, like $(b,--trace)."
    in
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"FILE" ~doc)
  in
  let prom =
    let doc =
      "Write the final metrics registry in Prometheus text exposition \
       format to $(docv): labelled counters and gauges directly, histogram \
       aggregates as companion gauges plus p50/p90/p99 quantile series."
    in
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)
  in
  let ledger =
    let doc =
      "Append this run's record to the JSONL ledger at $(docv) instead of \
       the default (thermoplace.ledger.jsonl, or the THERMOPLACE_LEDGER \
       environment variable). $(b,none) disables the ledger."
    in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun trace report perfetto prom ledger ->
            { Run.trace; report; perfetto; prom; ledger })
        $ trace $ report $ perfetto $ prom $ ledger)

(* --- design options ------------------------------------------------------ *)

(* What a subcommand needs of the design: the ledger/report config echo,
   and the prepared flow, timed as the "prepare" phase with its
   fingerprint recorded. *)
type design = {
  config : (string * Obs.Json.t) list;
  prepare :
    ?screen:Flow.screen_choice -> ?guide:Flow.guide_choice ->
    ?extra:(string * string) list -> unit -> Flow.t;
}

let design =
  let seed =
    let doc = "Random seed for vectors and placement." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cycles =
    let doc = "Measured simulation cycles for switching activity (>= 1)." in
    Arg.(value & opt (int_min ~min:1 "--cycles") 1000
         & info [ "cycles" ] ~docv:"N" ~doc)
  in
  let utilization =
    let doc = "Base placement row-utilization factor, in (0, 1]." in
    Arg.(value
         & opt (float_range ~min:0.0 ~min_exclusive:0.0 ~max_inclusive:1.0
                  "--utilization")
             0.85
         & info [ "utilization"; "u" ] ~docv:"U" ~doc)
  in
  let test_set =
    let doc =
      "Benchmark workload: $(b,scattered) (test set 1, four scattered \
       hotspots), $(b,concentrated) (test set 2, one large hotspot), or \
       $(b,small) (tiny 3-unit smoke benchmark)."
    in
    Arg.(value
         & opt (enum Postplace.Experiment.test_sets)
             Postplace.Experiment.Scattered
         & info [ "test-set"; "t" ] ~docv:"SET" ~doc)
  in
  let precond =
    let doc =
      "CG preconditioner for the thermal solves: $(b,auto) (per-stage \
       defaults), $(b,jacobi), $(b,ssor) (omega 1.2), or $(b,mg) (geometric \
       multigrid V-cycle — fastest at high mesh resolution). All choices \
       produce the same temperatures to solver tolerance."
    in
    Arg.(value & opt (enum Thermal.Mesh.preconds) None
         & info [ "precond" ] ~docv:"P" ~doc)
  in
  let make seed cycles utilization test_set precond =
    let config =
      [ ("seed", Obs.Json.Int seed);
        ("cycles", Obs.Json.Int cycles);
        ("utilization", Obs.Json.Float utilization);
        ("test_set",
         Obs.Json.String (Postplace.Experiment.test_set_name test_set));
        ("precond", Obs.Json.String (Thermal.Mesh.precond_choice_name precond))
      ]
    in
    let prepare ?screen ?guide ?extra () =
      let flow =
        Run.phase "prepare" @@ fun () ->
        Postplace.Experiment.prepare_test_set ~seed ~utilization
          ~sim_cycles:cycles ?precond ?screen ?guide test_set
      in
      Run.set_fingerprint (Flow.fingerprint ?extra flow);
      flow
    in
    { config; prepare }
  in
  Term.(const make $ seed $ cycles $ utilization $ test_set $ precond)

let jobs_arg =
  let doc =
    "Worker domains for parallel candidate evaluation and sweep points \
     (>= 1; 1 disables parallelism). Results are bit-identical for any \
     value."
  in
  Arg.(value & opt (int_min ~min:1 "--jobs") (Parallel.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let peak (ev : Flow.evaluation) = ev.Flow.metrics.Thermal.Metrics.peak_rise_k

(* The base placement's evaluation, timed as the "evaluate" phase. *)
let evaluate_base flow =
  Run.phase "evaluate" @@ fun () ->
  Flow.evaluate flow flow.Flow.base_placement

(* A transformed placement's evaluation, timed as the "evaluate_after"
   phase, with its area overhead and peak reduction against [base]. *)
let evaluate_after flow ~(base : Flow.evaluation) pl =
  let ev = Run.phase "evaluate_after" @@ fun () -> Flow.evaluate flow pl in
  Run.set_peak (peak ev);
  ( ev,
    Postplace.Technique.area_overhead_pct ~base:base.Flow.placement pl,
    Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
      ~after:ev.Flow.metrics )

let eval_json (ev : Flow.evaluation) =
  Obs.Json.Obj
    [ ("thermal", Thermal.Metrics.to_json ev.Flow.metrics);
      ("hotspots",
       Obs.Json.List (List.map Postplace.Hotspot.to_json ev.Flow.hotspots));
      ("critical_ps", Obs.Json.Float ev.Flow.timing.Sta.Timing.critical_ps);
      ("hpwl_um", Obs.Json.Float (Place.Placement.hpwl ev.Flow.placement));
      ("placement_utilization",
       Obs.Json.Float (Place.Placement.utilization ev.Flow.placement)) ]

(* --- flow ---------------------------------------------------------------- *)

let technique_arg =
  let doc = "Technique to apply: $(b,none), $(b,default), $(b,eri), $(b,hw)." in
  let techniques =
    [ ("none", "none"); ("default", "default"); ("eri", "eri"); ("hw", "hw") ]
  in
  Arg.(value & opt (enum techniques) "eri"
       & info [ "technique" ] ~docv:"T" ~doc)

let overhead_arg =
  let doc = "Target area overhead as a fraction in [0, 4] (e.g. 0.2 = 20%)." in
  Arg.(value
       & opt (float_range ~min:0.0 ~max_inclusive:4.0 "--overhead") 0.2
       & info [ "overhead" ] ~docv:"F" ~doc)

let run_flow obs design technique overhead jobs =
  let config =
    design.config
    @ [ ("technique", Obs.Json.String technique);
        ("overhead", Obs.Json.Float overhead);
        ("jobs", Obs.Json.Int jobs) ]
  in
  Parallel.Pool.set_jobs jobs;
  Run.run ~command:"flow" ~obs ~config @@ fun () ->
  let flow =
    design.prepare
      ~extra:[ ("technique", technique); ("jobs", string_of_int jobs) ]
      ()
  in
  let base = evaluate_base flow in
  Run.set_peak (peak base);
  Format.printf "base: %a@." Place.Placement.pp_summary base.Flow.placement;
  Format.printf "base thermal: %a@." Thermal.Metrics.pp base.Flow.metrics;
  let utilization = flow.Flow.base_utilization /. (1.0 +. overhead) in
  let transformed =
    Run.phase "technique" @@ fun () ->
    match technique with
    | "default" -> Some (Flow.apply_default flow ~utilization)
    | "eri" ->
      let rows =
        max 1
          (int_of_float
             (overhead
              *. float_of_int
                   flow.Flow.base_placement.Place.Placement.fp
                     .Place.Floorplan.num_rows))
      in
      let r = Flow.apply_eri flow ~base ~rows in
      Run.set_plan r.Postplace.Technique.inserted_after;
      Some r.Postplace.Technique.eri_placement
    | "hw" ->
      let de = Flow.evaluate flow (Flow.apply_default flow ~utilization) in
      Some (Flow.apply_hw flow ~on:de ())
    | _ (* "none" *) -> None
  in
  let result_section =
    match transformed with
    | None -> []
    | Some pl ->
      let ev, area_pct, red_pct = evaluate_after flow ~base pl in
      let timing_pct =
        Sta.Timing.overhead_pct ~before:base.Flow.timing ~after:ev.Flow.timing
      in
      Format.printf "after %s: %a@." technique Thermal.Metrics.pp
        ev.Flow.metrics;
      Format.printf
        "area overhead %.1f%%, peak reduction %.2f%%, timing %+0.2f%%@."
        area_pct red_pct timing_pct;
      [ ("result",
         Obs.Json.Obj
           [ ("scheme", Obs.Json.String technique);
             ("area_overhead_pct", Obs.Json.Float area_pct);
             ("peak_reduction_pct", Obs.Json.Float red_pct);
             ("gradient_reduction_pct",
              Obs.Json.Float
                (Thermal.Metrics.gradient_reduction_pct
                   ~before:base.Flow.metrics ~after:ev.Flow.metrics));
             ("timing_overhead_pct", Obs.Json.Float timing_pct);
             ("after", eval_json ev) ]) ]
  in
  (0, ("base", eval_json base) :: result_section)

(* --- report ---------------------------------------------------------------- *)

let run_report obs design =
  Run.run ~command:"report" ~obs ~config:design.config @@ fun () ->
  let flow = design.prepare () in
  let nl = flow.Flow.bench.Netgen.Benchmark.netlist in
  Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.compute flow.Flow.tech nl);
  Array.iter
    (fun u ->
       let cells = Netlist.Types.cells_of_unit nl u.Netgen.Benchmark.tag in
       Format.printf "unit %d %-8s %6d cells  %s@." u.Netgen.Benchmark.tag
         u.Netgen.Benchmark.unit_name (List.length cells)
         u.Netgen.Benchmark.description)
    flow.Flow.bench.Netgen.Benchmark.units;
  let base = evaluate_base flow in
  Run.set_peak (peak base);
  Format.printf "placement: %a@." Place.Placement.pp_summary base.Flow.placement;
  Format.printf "thermal:   %a@." Thermal.Metrics.pp base.Flow.metrics;
  Format.printf "critical path: %.0f ps@." base.Flow.timing.Sta.Timing.critical_ps;
  Format.printf "hotspots:@.";
  List.iteri
    (fun i h ->
       Format.printf "  #%d %s tiles=%d cells=%d peak=%.3fK@." i
         (Geo.Rect.to_string h.Postplace.Hotspot.rect)
         (Postplace.Hotspot.tile_count h)
         (List.length h.Postplace.Hotspot.cells)
         h.Postplace.Hotspot.peak_rise_k)
    base.Flow.hotspots;
  (0, [ ("base", eval_json base) ])

(* --- maps ------------------------------------------------------------------- *)

let ascii_arg =
  let doc = "Render maps as terminal shading instead of numeric matrices." in
  Arg.(value & flag & info [ "ascii" ] ~doc)

let run_maps obs design ascii =
  Run.run ~command:"maps" ~obs ~config:design.config @@ fun () ->
  let flow = design.prepare () in
  let power, thermal =
    Run.phase "maps" @@ fun () -> Postplace.Experiment.fig5_maps flow
  in
  let metrics = Thermal.Metrics.of_map thermal in
  Run.set_peak metrics.Thermal.Metrics.peak_rise_k;
  let dump name g =
    Format.printf "# %s (%dx%d, top row first)@." name (Geo.Grid.nx g)
      (Geo.Grid.ny g);
    if ascii then Format.printf "%a@." Geo.Grid.pp_shaded g
    else Format.printf "%a@." Geo.Grid.pp_rows g
  in
  dump "power [W/tile]" power;
  dump "thermal rise [K]" thermal;
  (0, [ ("thermal", Thermal.Metrics.to_json metrics) ])

(* --- export ------------------------------------------------------------------ *)

let outdir_arg =
  let doc = "Directory for the exported files (created if missing)." in
  Arg.(value & opt string "export" & info [ "outdir"; "o" ] ~docv:"DIR" ~doc)

let run_export obs design outdir =
  let config = design.config @ [ ("outdir", Obs.Json.String outdir) ] in
  Run.run ~command:"export" ~obs ~config @@ fun () ->
  let flow = design.prepare () in
  if not (Sys.file_exists outdir) then Unix.mkdir outdir 0o755;
  let base = evaluate_base flow in
  Run.set_peak (peak base);
  let pl = base.Flow.placement in
  let nl = flow.Flow.bench.Netgen.Benchmark.netlist in
  let path name = Filename.concat outdir name in
  let fillers, problem =
    Run.phase "export" @@ fun () ->
    Netlist.Verilog.write_file (path "design.v") ~module_name:"design" nl;
    Celllib.Lef.write_file (path "cells.lef") flow.Flow.tech;
    let fillers = Place.Filler.fill pl in
    Place.Def_writer.write_file (path "design.def") ~fillers pl;
    let problem =
      Thermal.Mesh.build flow.Flow.mesh_config ~power:base.Flow.power_map
    in
    Thermal.Spice.write_file (path "thermal.sp") problem;
    let overlay =
      { Place.Svg.heat = Some base.Flow.thermal_map;
        outlines = List.map (fun h -> h.Postplace.Hotspot.rect) base.Flow.hotspots }
    in
    Place.Svg.write_file (path "layout.svg") ~fillers ~overlay pl;
    (fillers, problem)
  in
  Format.printf
    "wrote %s/design.v (%d cells), cells.lef, design.def (%d fillers), \
     thermal.sp (%d resistors), layout.svg@."
    outdir
    (Netlist.Types.num_cells nl)
    (List.length fillers)
    (Thermal.Spice.count_resistors problem);
  (0, [ ("base", eval_json base) ])

(* --- sweep ------------------------------------------------------------------- *)

let checkpoint_arg =
  let doc =
    "Checkpoint the sweep to $(docv) (atomic JSON, written after every \
     completed point) and resume from it when it already exists. A resumed \
     sweep reproduces the uninterrupted run bit-identically; a checkpoint \
     from different sweep parameters is rejected."
  in
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let run_sweep obs design jobs checkpoint =
  let config = design.config @ [ ("jobs", Obs.Json.Int jobs) ] in
  Parallel.Pool.set_jobs jobs;
  Run.run ~command:"sweep" ~obs ~config @@ fun () ->
  let flow = design.prepare ~extra:[ ("jobs", string_of_int jobs) ] () in
  let fig6 =
    Run.phase "sweep" @@ fun () -> Postplace.Experiment.run_fig6 ?checkpoint flow
  in
  Run.set_peak (peak fig6.Postplace.Experiment.base_eval);
  let points =
    fig6.Postplace.Experiment.default_points
    @ fig6.Postplace.Experiment.eri_points
    @ fig6.Postplace.Experiment.hw_points
  in
  Format.printf "%-10s %12s %14s %12s@." "scheme" "overhead[%]"
    "reduction[%]" "timing[+%]";
  List.iter
    (fun (p : Postplace.Experiment.point) ->
       Format.printf "%-10s %12.2f %14.2f %12.2f@."
         p.Postplace.Experiment.scheme p.area_overhead_pct
         p.temp_reduction_pct p.timing_overhead_pct)
    points;
  ( 0,
    [ ("base", eval_json fig6.Postplace.Experiment.base_eval);
      ("points", Obs.Json.List (List.map Postplace.Experiment.point_to_json points)) ] )

(* --- optimize ---------------------------------------------------------------- *)

let screen_arg =
  let doc =
    "Optimizer candidate-screening tier: $(b,auto) (fft unless a fault is \
     armed), $(b,fft) (rank candidates with the O(n log n) Green's-function \
     power blurring, re-score only the leaders with MG-CG), or $(b,exact) \
     (full solve for every candidate). The emitted plan is bit-identical \
     across tiers whenever the blur leader set contains the exact winner."
  in
  Arg.(value & opt (enum Flow.screens) Flow.Screen_auto
       & info [ "screen" ] ~docv:"S" ~doc)

let guide_arg =
  let doc =
    "Optimizer candidate-ranking signal: $(b,peak) (evaluate each \
     candidate's predicted peak temperature — the paper's scheme) or \
     $(b,gradient) (one sensitivity map per round prices every candidate \
     from the dT_peak/d(power) map — spectral under the fft screen tier, \
     an adjoint solve under the exact one — far fewer solves at matched \
     quality)."
  in
  Arg.(value & opt (enum Flow.guides) Flow.Guide_peak
       & info [ "guide" ] ~docv:"G" ~doc)

let rows_arg =
  let doc = "Empty-row budget to allocate greedily (>= 1)." in
  Arg.(value & opt (int_min ~min:1 "--rows") 2
       & info [ "rows" ] ~docv:"N" ~doc)

let run_optimize obs design screen guide rows jobs =
  let config =
    design.config
    @ [ ("rows", Obs.Json.Int rows); ("jobs", Obs.Json.Int jobs);
        ("screen", Obs.Json.String (Flow.screen_choice_name screen));
        ("guide", Obs.Json.String (Flow.guide_choice_name guide)) ]
  in
  Parallel.Pool.set_jobs jobs;
  Run.run ~command:"optimize" ~obs ~config @@ fun () ->
  let flow =
    design.prepare ~screen ~guide
      ~extra:[ ("rows", string_of_int rows); ("jobs", string_of_int jobs) ]
      ()
  in
  let base = evaluate_base flow in
  Format.printf "base thermal: %a@." Thermal.Metrics.pp base.Flow.metrics;
  (* under the gradient guide, surface the base placement's sensitivity
     map before optimizing: where a watt buys the most peak temperature *)
  let sens_sections =
    match guide with
    | Flow.Guide_peak -> []
    | Flow.Guide_gradient ->
      let adj =
        Run.phase "sensitivity" @@ fun () ->
        Flow.sensitivity flow flow.Flow.base_placement
      in
      let sens = adj.Thermal.Adjoint.sensitivity in
      let ix, iy = Geo.Grid.argmax sens in
      let gap =
        adj.Thermal.Adjoint.smoothed_peak_k -. adj.Thermal.Adjoint.peak_rise_k
      in
      Format.printf
        "adjoint sensitivity: peak %.3f K/W at tile (%d, %d), smoothing \
         gap %.3f K@."
        (Geo.Grid.max_value sens) ix iy gap;
      [ ("sensitivity",
         Obs.Json.Obj
           [ ("peak_k_per_w", Obs.Json.Float (Geo.Grid.max_value sens));
             ("argmax_ix", Obs.Json.Int ix);
             ("argmax_iy", Obs.Json.Int iy);
             ("smoothed_peak_k",
              Obs.Json.Float adj.Thermal.Adjoint.smoothed_peak_k);
             ("smoothing_gap_k", Obs.Json.Float gap);
             ("cg_iterations",
              Obs.Json.Int adj.Thermal.Adjoint.cg_iterations) ]) ]
  in
  let r =
    Run.phase "optimize" @@ fun () ->
    Postplace.Optimizer.greedy_rows flow ~rows ()
  in
  let plan = r.Postplace.Optimizer.plan in
  Run.set_plan plan.Postplace.Technique.inserted_after;
  let pl = plan.Postplace.Technique.eri_placement in
  let ev, area_pct, red_pct = evaluate_after flow ~base pl in
  Format.printf "optimized: %a@." Thermal.Metrics.pp ev.Flow.metrics;
  Format.printf
    "rows %d, evaluations %d (adjoint %d), area overhead %.1f%%, peak \
     reduction %.2f%%@."
    rows r.Postplace.Optimizer.evaluations
    r.Postplace.Optimizer.adjoint_evaluations area_pct red_pct;
  ( 0,
    [ ("base", eval_json base) ]
    @ sens_sections
    @ [ ("result",
         Obs.Json.Obj
           [ ("rows", Obs.Json.Int rows);
             ("evaluations", Obs.Json.Int r.Postplace.Optimizer.evaluations);
             ("blur_evaluations",
              Obs.Json.Int r.Postplace.Optimizer.blur_evaluations);
             ("adjoint_evaluations",
              Obs.Json.Int r.Postplace.Optimizer.adjoint_evaluations);
             ("predicted_peak_k",
              Obs.Json.Float r.Postplace.Optimizer.predicted_peak_k);
             ("realization",
              match r.Postplace.Optimizer.realization with
              | Some re ->
                Obs.Json.String (Postplace.Optimizer.realization_name re)
              | None -> Obs.Json.Null);
             ("spectral_parity_rel",
              match r.Postplace.Optimizer.spectral_parity_rel with
              | Some p -> Obs.Json.Float p
              | None -> Obs.Json.Null);
             ("inserted_after",
              Obs.Json.List
                (List.map (fun i -> Obs.Json.Int i)
                   plan.Postplace.Technique.inserted_after));
             ("area_overhead_pct", Obs.Json.Float area_pct);
             ("peak_reduction_pct", Obs.Json.Float red_pct);
             ("after", eval_json ev) ]) ] )

(* --- check ------------------------------------------------------------------- *)

let run_check obs design =
  Run.run ~command:"check" ~obs ~config:design.config @@ fun () ->
  let flow = design.prepare () in
  let outcomes =
    Run.phase "check" @@ fun () ->
    Flow.check_design flow flow.Flow.base_placement
  in
  List.iter
    (fun (o : Robust.Validate.outcome) ->
       match o.Robust.Validate.failure with
       | None -> Format.printf "PASS %s@." o.Robust.Validate.check_name
       | Some detail ->
         Format.printf "FAIL %s: %s@." o.Robust.Validate.check_name detail)
    outcomes;
  let failures =
    List.filter (fun o -> o.Robust.Validate.failure <> None) outcomes
  in
  Format.printf "%d/%d checks passed@."
    (List.length outcomes - List.length failures)
    (List.length outcomes);
  let outcome_json (o : Robust.Validate.outcome) =
    Obs.Json.Obj
      [ ("check", Obs.Json.String o.Robust.Validate.check_name);
        ("failure",
         match o.Robust.Validate.failure with
         | None -> Obs.Json.Null
         | Some d -> Obs.Json.String d) ]
  in
  let status =
    match failures with
    | [] -> 0
    | o :: _ ->
      Robust.Error.exit_code
        (Robust.Error.Invariant_violation
           { check = o.Robust.Validate.check_name;
             detail = Option.value o.Robust.Validate.failure ~default:"" })
  in
  (status, [ ("checks", Obs.Json.List (List.map outcome_json outcomes)) ])

(* --- serve ------------------------------------------------------------------- *)

let input_arg =
  let doc =
    "Read JSONL job requests from $(docv) ($(b,-) = stdin). One request \
     object per line; see the Serving section of the README for the \
     schema."
  in
  Arg.(value & opt string "-" & info [ "input"; "i" ] ~docv:"FILE" ~doc)

let output_arg =
  let doc =
    "Write JSONL responses to $(docv) ($(b,-) = stdout). Exactly one \
     response line per request line, in completion order."
  in
  Arg.(value & opt string "-" & info [ "output"; "o" ] ~docv:"FILE" ~doc)

let queue_cap_arg =
  let doc =
    "Bounded admission-queue capacity (>= 1). A request arriving on a \
     full queue is rejected with a structured queue-full error (exit \
     class 14 in its response) instead of buffered without limit."
  in
  Arg.(value & opt (int_min ~min:1 "--queue-cap") 64
       & info [ "queue-cap" ] ~docv:"N" ~doc)

let flow_slots_arg =
  let doc =
    "Prepared-flow MRU cache capacity (>= 1): how many distinct config \
     fingerprints keep their prepared flow and base evaluation warm \
     across batches."
  in
  Arg.(value & opt (int_min ~min:1 "--flow-slots") 4
       & info [ "flow-slots" ] ~docv:"N" ~doc)

let max_retries_arg =
  let doc =
    "Retry budget for transient failures (solver divergence, worker \
     failure) with seeded-jitter exponential backoff; validation errors \
     are never retried. A request's own max_retries field overrides \
     this."
  in
  Arg.(value & opt (int_min ~min:0 "--max-retries") 2
       & info [ "max-retries" ] ~docv:"N" ~doc)

let retry_base_ms_arg =
  let doc = "Base delay of the exponential retry backoff, in milliseconds." in
  Arg.(value
       & opt (float_range ~min:0.0 ~min_exclusive:0.0 "--retry-base-ms") 25.0
       & info [ "retry-base-ms" ] ~docv:"MS" ~doc)

let open_input input =
  if input = "-" then Ok Unix.stdin
  else
    match Unix.openfile input [ Unix.O_RDONLY ] 0 with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot open %s: %s" input (Unix.error_message e))

let open_output output =
  if output = "-" then Ok (stdout, fun () -> flush stdout)
  else
    match open_out output with
    | oc -> Ok (oc, fun () -> close_out oc)
    | exception Sys_error msg -> Error ("cannot open output: " ^ msg)

let run_serve obs input output queue_cap flow_slots max_retries retry_base_ms
    jobs =
  let config =
    [ ("input", Obs.Json.String input);
      ("output", Obs.Json.String output);
      ("queue_cap", Obs.Json.Int queue_cap);
      ("flow_slots", Obs.Json.Int flow_slots);
      ("max_retries", Obs.Json.Int max_retries);
      ("retry_base_ms", Obs.Json.Float retry_base_ms);
      ("jobs", Obs.Json.Int jobs) ]
  in
  Run.run ~command:"serve" ~obs ~config @@ fun () ->
  let close_input fd = if input <> "-" then Unix.close fd in
  match open_input input with
  | Error msg ->
    Printf.eprintf "thermoplace: %s\n" msg;
    (2, [])
  | Ok in_fd ->
    match open_output output with
    | Error msg ->
      close_input in_fd;
      Printf.eprintf "thermoplace: %s\n" msg;
      (2, [])
    | Ok (out_ch, close_output) ->
      (* Per-job ledger records go to the same ledger as this run's own
         summary record, so `history list --job ID` sees both sides. *)
      let server_config =
        { Serve.Server.default_config with
          Serve.Server.queue_capacity = queue_cap;
          flow_slots;
          policy =
            { Serve.Policy.default with
              Serve.Policy.max_retries;
              base_delay_ms = retry_base_ms };
          ledger = Run.ledger_path () }
      in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_output ();
            close_input in_fd)
          (fun () ->
             Parallel.Pool.with_pool ~jobs @@ fun () ->
             Run.phase "serve" @@ fun () ->
             Serve.Server.run ~config:server_config ~input:in_fd
               ~output:out_ch ())
      in
      (* The summary goes to stderr: stdout may be the response stream. *)
      let summary = Serve.Server.summary_json summary in
      Printf.eprintf "thermoplace: serve summary %s\n"
        (Obs.Json.to_string summary);
      (0, [ ("summary", summary) ])

let serve_cmd =
  let doc =
    "Serve batch optimization jobs from a JSONL request stream: bounded \
     admission queue with backpressure, same-fingerprint batching over a \
     shared prepared flow, per-job deadlines, retry with exponential \
     backoff, per-job fault isolation, and graceful drain on SIGTERM \
     (stop accepting, finish everything admitted, exit 0)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ obs $ input_arg $ output_arg $ queue_cap_arg
          $ flow_slots_arg $ max_retries_arg $ retry_base_ms_arg $ jobs_arg)

(* --- history ----------------------------------------------------------------- *)

(* Regression forensics over the run ledger: list runs, show one record,
   diff two records' config/timings, or trend one numeric key. Records
   are addressed by the index `history list` prints; negative indexes
   count from the end (-1 = latest). *)

let history_ledger_arg =
  let doc =
    "Ledger file to read (default thermoplace.ledger.jsonl, or the \
     THERMOPLACE_LEDGER environment variable)."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let last_arg =
  let doc = "Only consider the last $(docv) records." in
  Arg.(value & opt (some (int_min ~min:1 "--last")) None
       & info [ "last" ] ~docv:"N" ~doc)

(* Per-job records written by `thermoplace serve` carry a job_id; the
   --job filter narrows list/diff to one job's history (e.g. its retry
   attempts across server runs). CLI run records have no job_id and
   never match. Indexes printed and accepted under --job address the
   filtered view. *)
let job_arg =
  let doc =
    "Only consider records whose $(b,job_id) field equals $(docv) \
     (per-job records written by $(b,thermoplace serve)). Record indexes \
     then address the filtered list."
  in
  Arg.(value & opt (some string) None & info [ "job" ] ~docv:"ID" ~doc)

let filter_job job records =
  match job with
  | None -> records
  | Some id -> List.filter (fun r -> Obs.Ledger.job_id r = Some id) records

let load_ledger ledger =
  match Obs.Ledger.resolve_path ?path:ledger () with
  | None -> Error "ledger disabled (path \"none\")"
  | Some path ->
    (match Obs.Ledger.load path with
     | Ok records -> Ok (path, records)
     | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let take_last n l =
  match n with
  | None -> l
  | Some n ->
    let len = List.length l in
    if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let nth_record records idx =
  let n = List.length records in
  let i = if idx < 0 then n + idx else idx in
  if i < 0 || i >= n then
    Error (Printf.sprintf "record %d out of range (ledger has %d)" idx n)
  else Ok (i, List.nth records i)

let format_time ts =
  if Float.is_nan ts then "?"
  else
    let tm = Unix.localtime ts in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

let total_ms r =
  List.assoc_opt "total_ms" (Obs.Ledger.phases_ms r)

let with_ledger ledger f =
  match load_ledger ledger with
  | Error msg ->
    Printf.eprintf "thermoplace: history: %s\n" msg;
    1
  | Ok (path, records) -> f path records

let run_history_list ledger last job =
  with_ledger ledger @@ fun path records ->
  let records = filter_job job records in
  Printf.printf "ledger %s: %d record(s)%s\n" path (List.length records)
    (match job with Some id -> Printf.sprintf " for job %s" id | None -> "");
  let base = List.length records - List.length (take_last last records) in
  List.iteri
    (fun i r ->
       Printf.printf "#%-3d %s  %-10s %-5s exit=%-2d %10s  %s%s\n" (base + i)
         (format_time (Obs.Ledger.timestamp_s r))
         (Obs.Ledger.command r) (Obs.Ledger.outcome r)
         (Obs.Ledger.exit_code r)
         (match total_ms r with
          | Some ms -> Printf.sprintf "%.1fms" ms
          | None -> "-")
         (Obs.Ledger.fingerprint r)
         (match Obs.Ledger.job_id r with
          | Some id when job = None -> "  job=" ^ id
          | _ -> ""))
    (take_last last records);
  0

let run_history_show ledger idx =
  with_ledger ledger @@ fun _path records ->
  match nth_record records idx with
  | Error msg ->
    Printf.eprintf "thermoplace: history: %s\n" msg;
    1
  | Ok (_, r) ->
    print_endline (Obs.Json.to_string ~pretty:true r);
    0

let run_history_diff ledger job idx_a idx_b =
  with_ledger ledger @@ fun _path records ->
  let records = filter_job job records in
  match (nth_record records idx_a, nth_record records idx_b) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "thermoplace: history: %s\n" msg;
    1
  | Ok (ia, a), Ok (ib, b) ->
    Printf.printf "a: #%d %s %s  %s\n" ia (format_time (Obs.Ledger.timestamp_s a))
      (Obs.Ledger.command a) (Obs.Ledger.fingerprint a);
    Printf.printf "b: #%d %s %s  %s\n" ib (format_time (Obs.Ledger.timestamp_s b))
      (Obs.Ledger.command b) (Obs.Ledger.fingerprint b);
    (* config delta: union of keys, a's order first *)
    let cfg_a = Obs.Ledger.config_fields a in
    let cfg_b = Obs.Ledger.config_fields b in
    let keys =
      List.map fst cfg_a
      @ List.filter (fun k -> not (List.mem_assoc k cfg_a)) (List.map fst cfg_b)
    in
    let render = function
      | None -> "-"
      | Some j -> Obs.Json.to_string j
    in
    let changed =
      List.filter
        (fun k -> List.assoc_opt k cfg_a <> List.assoc_opt k cfg_b)
        keys
    in
    if changed = [] then print_endline "config: identical"
    else begin
      print_endline "config:";
      List.iter
        (fun k ->
           Printf.printf "  %-14s %s -> %s\n" k
             (render (List.assoc_opt k cfg_a))
             (render (List.assoc_opt k cfg_b)))
        changed
    end;
    (* per-phase timing delta *)
    let ph_a = Obs.Ledger.phases_ms a in
    let ph_b = Obs.Ledger.phases_ms b in
    let phase_keys =
      List.map fst ph_a
      @ List.filter (fun k -> not (List.mem_assoc k ph_a)) (List.map fst ph_b)
    in
    if phase_keys <> [] then begin
      Printf.printf "%-18s %12s %12s %10s\n" "phase" "a[ms]" "b[ms]" "delta";
      List.iter
        (fun k ->
           match (List.assoc_opt k ph_a, List.assoc_opt k ph_b) with
           | Some va, Some vb ->
             let pct =
               if va > 0.0 then Printf.sprintf "%+.1f%%" ((vb -. va) /. va *. 100.0)
               else "-"
             in
             Printf.printf "%-18s %12.1f %12.1f %10s\n" k va vb pct
           | Some va, None -> Printf.printf "%-18s %12.1f %12s %10s\n" k va "-" "-"
           | None, Some vb -> Printf.printf "%-18s %12s %12.1f %10s\n" k "-" vb "-"
           | None, None -> ())
        phase_keys
    end;
    let scalar name get render =
      match (get a, get b) with
      | None, None -> ()
      | va, vb when va = vb ->
        Printf.printf "%-18s %s (same)\n" name (render va)
      | va, vb ->
        Printf.printf "%-18s %s -> %s\n" name (render va) (render vb)
    in
    let render_float = function
      | None -> "-"
      | Some v -> Printf.sprintf "%.6g" v
    in
    let render_str = function None -> "-" | Some s -> s in
    scalar "cg_iterations"
      (fun r -> Option.bind (Obs.Json.member "cg_iterations" r) Obs.Json.to_float)
      render_float;
    scalar "peak_rise_k"
      (fun r -> Option.bind (Obs.Json.member "peak_rise_k" r) Obs.Json.to_float)
      render_float;
    scalar "plan_hash"
      (fun r ->
         Option.bind (Obs.Json.member "plan_hash" r) Obs.Json.to_string_opt)
      render_str;
    0

(* A trend key is a phases_ms entry first, then any numeric top-level
   record field (peak_rise_k, cg_iterations, exit_code...). *)
let trend_value key r =
  match List.assoc_opt key (Obs.Ledger.phases_ms r) with
  | Some v -> Some v
  | None -> Option.bind (Obs.Json.member key r) Obs.Json.to_float

let trend_key_arg =
  let doc =
    "Numeric key to trend: a phases_ms entry (optimize_ms, total_ms, ...) \
     or a top-level record field (peak_rise_k, cg_iterations)."
  in
  Arg.(value & opt string "total_ms" & info [ "key" ] ~docv:"KEY" ~doc)

let run_history_trend ledger key last =
  with_ledger ledger @@ fun _path records ->
  let points =
    List.filter_map
      (fun r -> Option.map (fun v -> (r, v)) (trend_value key r))
      (take_last last records)
  in
  (match points with
   | [] -> Printf.printf "no records carry key %S\n" key
   | points ->
     let vmax =
       List.fold_left (fun m (_, v) -> Float.max m v) Float.neg_infinity
         points
     in
     Printf.printf "%-20s %12s  %-30s %s\n" "time" key "" "fingerprint";
     List.iter
       (fun (r, v) ->
          let width =
            if vmax > 0.0 then
              int_of_float (Float.round (v /. vmax *. 30.0))
            else 0
          in
          Printf.printf "%-20s %12.2f  %-30s %s\n"
            (format_time (Obs.Ledger.timestamp_s r))
            v
            (String.make (max 0 (min 30 width)) '#')
            (Obs.Ledger.fingerprint r))
       points);
  0

let history_cmd =
  let list_cmd =
    let doc = "List ledger records (index, time, command, outcome, total)." in
    Cmd.v (Cmd.info "list" ~doc)
      Term.(const run_history_list $ history_ledger_arg $ last_arg $ job_arg)
  in
  let idx_pos n docv =
    Arg.(required & pos n (some int) None & info [] ~docv)
  in
  let show_cmd =
    let doc = "Pretty-print one ledger record (negative index = from end)." in
    Cmd.v (Cmd.info "show" ~doc)
      Term.(const run_history_show $ history_ledger_arg $ idx_pos 0 "IDX")
  in
  let diff_cmd =
    let doc =
      "Diff two ledger records: config delta, per-phase timing delta, CG \
       iteration / peak temperature / plan-hash changes."
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(const run_history_diff $ history_ledger_arg $ job_arg
            $ idx_pos 0 "A" $ idx_pos 1 "B")
  in
  let trend_cmd =
    let doc = "Print one numeric key across records with an ASCII bar." in
    Cmd.v (Cmd.info "trend" ~doc)
      Term.(const run_history_trend $ history_ledger_arg $ trend_key_arg
            $ last_arg)
  in
  let doc = "Inspect the cross-run ledger (list, show, diff, trend)." in
  Cmd.group (Cmd.info "history" ~doc) [ list_cmd; show_cmd; diff_cmd; trend_cmd ]
(* --- command wiring ------------------------------------------------------------ *)

let flow_cmd =
  let doc = "Run the flow and apply one temperature-reduction technique." in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(const run_flow $ obs $ design $ technique_arg $ overhead_arg
          $ jobs_arg)

let report_cmd =
  let doc = "Print netlist, placement, power and thermal summaries." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ obs $ design)

let maps_cmd =
  let doc = "Dump power and thermal maps (Fig. 5 data)." in
  Cmd.v (Cmd.info "maps" ~doc) Term.(const run_maps $ obs $ design $ ascii_arg)

let sweep_cmd =
  let doc = "Reduction-vs-overhead sweep for all three schemes (Fig. 6)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run_sweep $ obs $ design $ jobs_arg $ checkpoint_arg)

let check_cmd =
  let doc =
    "Run the design invariant suite (placement legality, floorplan \
     containment, power-map sanity, mesh-matrix SPD structure, bounded \
     temperatures) and exit non-zero on any violation."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run_check $ obs $ design)

let optimize_cmd =
  let doc =
    "Allocate an empty-row budget with the greedy row-budget optimizer \
     (true thermal solves per candidate, evaluated in parallel on the \
     domain pool)."
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const run_optimize $ obs $ design $ screen_arg $ guide_arg
          $ rows_arg $ jobs_arg)

let export_cmd =
  let doc =
    "Export the design: structural Verilog, DEF placement, SPICE thermal \
     netlist and an SVG layout with hotspot overlay."
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run_export $ obs $ design $ outdir_arg)

let () =
  (match Robust.Faults.init_from_env () with
   | Ok () -> ()
   | Error msg ->
     Printf.eprintf "thermoplace: %s\n" msg;
     exit 2);
  let doc = "post-placement temperature reduction (Liu & Nannarelli, DATE'10)" in
  let info = Cmd.info "thermoplace" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ flow_cmd; report_cmd; maps_cmd; sweep_cmd; optimize_cmd;
            check_cmd; export_cmd; serve_cmd; history_cmd ]))
