(* Call-by-call re-enactments of [Flow.prepare], [Flow.evaluate],
   [Serve.Job.prepare_flow] and [Serve.Job.execute], with every call into
   a layer timed through [Sampler]. They must produce bit-identical
   results to the functions they mirror: [prepare_drift] compares a
   re-enacted flow with the real one, and the traced run compares output
   digests with the untraced run. *)

module F = Postplace.Flow
module S = Sampler

(* Metric-name suffix of a mesh size: the 40x40 flow grid and the
   160x160 production grid have their own unit-cost metrics. *)
let grid_suffix nx =
  if nx = Thermal.Mesh.default_config.Thermal.Mesh.nx then Some ""
  else if nx = 160 then Some "_160"
  else None

let named base sfx ext = Option.map (fun s -> base ^ s ^ ext) sfx

(* Same as the flow's private unit-area table. *)
let unit_areas tech (bench : Netgen.Benchmark.t) =
  let nl = bench.Netgen.Benchmark.netlist in
  Array.map
    (fun u ->
       let tag = u.Netgen.Benchmark.tag in
       ( tag,
         List.fold_left
           (fun acc cid ->
              acc
              +. Celllib.Info.area_um2 tech
                   (Netlist.Types.cell nl cid).Netlist.Types.kind)
           0.0
           (Netlist.Types.cells_of_unit nl tag) ))
    bench.Netgen.Benchmark.units

let prepare ?(seed = 42) ?(utilization = 0.85) ?(sim_cycles = 1000)
    ?(warmup_cycles = 64) ?(mesh_config = Thermal.Mesh.default_config)
    ?precond ?(screen = F.Screen_auto) ?(guide = F.Guide_peak) bench workload
  =
  S.preparing @@ fun () ->
  let tech = Celllib.Tech.default_65nm in
  let nl = bench.Netgen.Benchmark.netlist in
  let rng = Geo.Rng.create seed in
  let (activity, act_mw), act_ms =
    Pstats.time_ms @@ fun () ->
    Pstats.alloc_mw @@ fun () ->
    let sim = Logicsim.Sim.create nl in
    Logicsim.Activity.measure sim workload (Geo.Rng.split rng)
      ~warmup:warmup_cycles ~cycles:sim_cycles
  in
  S.add_layer "logicsim" act_ms;
  S.record "logicsim.activity_ms" act_ms;
  let cycles = warmup_cycles + activity.Logicsim.Activity.measured_cycles in
  S.record "logicsim.alloc_mw" act_mw;
  S.record "logicsim.cycles" (float_of_int cycles);
  S.record "logicsim.ns_per_gate_eval"
    (Pstats.ns_per_gate_eval ~ms:act_ms ~cells:(Netlist.Types.num_cells nl)
       ~cycles);
  let areas = S.leaf "core" (fun () -> unit_areas tech bench) in
  let total_area = Array.fold_left (fun s (_, a) -> s +. a) 0.0 areas in
  let fp, regions =
    S.leaf "place" @@ fun () ->
    let fp =
      Place.Floorplan.create tech ~cell_area_um2:total_area ~utilization
        ~aspect:1.0
    in
    (fp, Place.Regions.pack fp ~areas)
  in
  let cells_of tag = Array.of_list (Netlist.Types.cells_of_unit nl tag) in
  let positions, global_mw =
    S.leaf ~metric:"place.global_ms" "place" @@ fun () ->
    Pstats.alloc_mw @@ fun () ->
    Place.Global.place nl tech ~regions ~cells_of_region:cells_of
      (Geo.Rng.split rng)
  in
  let base_placement, legal_mw =
    S.leaf ~metric:"place.legalize_ms" "place" @@ fun () ->
    Pstats.alloc_mw @@ fun () ->
    Place.Legalize.run nl fp ~regions ~cells_of_region:cells_of ~positions
  in
  S.record "place.alloc_mw" (global_mw +. legal_mw);
  let power =
    S.leaf ~metric:"power.model_ms" "power" @@ fun () ->
    Power.Model.compute base_placement
      ~toggle_rate:activity.Logicsim.Activity.toggle_rate
  in
  { F.bench; tech; workload; activity; unit_areas = areas; base_placement;
    base_regions = regions; positions;
    per_cell_w = power.Power.Model.per_cell_w; power_report = power; seed;
    base_utilization = utilization; mesh_config; mesh_precond = precond;
    screen; guide }

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* [None] when the re-enacted flow equals the real one field by field
   (floats by bit pattern), else the first differing field. *)
let prepare_drift (real : F.t) (mine : F.t) =
  let pos (p : Place.Global.positions) =
    Array.concat [ Array.map fst p; Array.map snd p ]
  in
  let act (a : Logicsim.Activity.report) =
    Array.append a.Logicsim.Activity.toggle_rate a.Logicsim.Activity.static_prob
  in
  let checks =
    [ ("activity", same_floats (act real.F.activity) (act mine.F.activity));
      ("unit_areas",
       same_floats (Array.map snd real.F.unit_areas)
         (Array.map snd mine.F.unit_areas));
      ("positions", same_floats (pos real.F.positions) (pos mine.F.positions));
      ("base_placement",
       real.F.base_placement.Place.Placement.locs
       = mine.F.base_placement.Place.Placement.locs
       && real.F.base_placement.Place.Placement.fp
          = mine.F.base_placement.Place.Placement.fp);
      ("per_cell_w", same_floats real.F.per_cell_w mine.F.per_cell_w) ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

let ( let* ) = Result.bind

let evaluate (t : F.t) pl =
  let cfg = t.F.mesh_config in
  let sfx = grid_suffix cfg.Thermal.Mesh.nx in
  let power_map =
    S.leaf ?metric:(named "power.map" sfx "_ms") "power" @@ fun () ->
    Power.Map.power_map pl ~per_cell_w:t.F.per_cell_w ~nx:cfg.Thermal.Mesh.nx
      ~ny:cfg.Thermal.Mesh.ny
  in
  let* () =
    S.leaf "core" @@ fun () ->
    Robust.Validate.first_failure [ Postplace.Checks.power_map power_map ]
  in
  let misses0 = Harness.counter "thermal.mesh.cache.misses" in
  let (problem, precond), build_ms =
    Pstats.time_ms @@ fun () ->
    let problem = Thermal.Mesh.build cfg ~power:power_map in
    (problem,
     Option.map (Thermal.Mesh.precond_of_choice problem) t.F.mesh_precond)
  in
  S.add_layer "thermal" build_ms;
  (* a build counts as a unit sample only when it assembled (cold) *)
  if Harness.counter "thermal.mesh.cache.misses" > misses0 then
    Option.iter (fun m -> S.record m build_ms)
      (named "thermal.build" sfx "_ms");
  let* solution =
    S.leaf ?metric:(named "thermal.solve" sfx "_ms") "thermal" @@ fun () ->
    Thermal.Mesh.solve_result ?precond problem
  in
  Option.iter
    (fun m -> S.record m (float_of_int solution.Thermal.Mesh.cg_iterations))
    (named "thermal.cg_iterations" sfx "");
  let thermal_map, metrics =
    S.leaf "thermal" @@ fun () ->
    let map = Thermal.Mesh.active_layer_grid solution in
    (map, Thermal.Metrics.of_map map)
  in
  let* () =
    S.leaf "core" @@ fun () ->
    Robust.Validate.first_failure [ Postplace.Checks.temperature thermal_map ]
  in
  let hotspots =
    S.leaf ~metric:"core.hotspot_ms" "core" @@ fun () ->
    Postplace.Hotspot.detect ~thermal:thermal_map ~placement:pl ()
  in
  let timing =
    S.leaf ~metric:"sta.analyze_ms" "sta" @@ fun () ->
    Sta.Timing.analyze pl ~thermal_map ()
  in
  Ok { F.placement = pl; power_map; thermal_map; metrics; hotspots; timing }

let evaluate_exn t pl =
  match evaluate t pl with Ok e -> e | Error e -> Robust.Error.raise_ e

(* --- serve jobs --------------------------------------------------------- *)

module J = Serve.Job

(* The same test-set mapping as [Serve.Job.prepare_flow], for the test
   sets the benchmark requests. *)
let bench_and_workload test_set =
  match test_set with
  | "scattered" ->
    ( S.leaf ~metric:"netgen.build_ms" "netgen" Netgen.Benchmark.nine_unit,
      Workload.ts1_workload () )
  | "concentrated" ->
    ( S.leaf ~metric:"netgen.build_ms" "netgen" Netgen.Benchmark.nine_unit,
      Workload.ts2_workload () )
  | s -> invalid_arg ("test set not re-enacted: " ^ s)

let prepare_job (r : J.request) =
  S.preparing @@ fun () ->
  let bench, workload = bench_and_workload r.J.test_set in
  let flow =
    prepare ~seed:r.J.seed ~utilization:r.J.utilization ~sim_cycles:r.J.cycles
      ?precond:r.J.precond ~screen:r.J.screen ~guide:r.J.guide bench workload
  in
  (flow, evaluate_exn flow flow.F.base_placement)

(* Same digest as the serve responses' [plan_hash]. *)
let plan_hash inserted_after =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int inserted_after)))

let derived_rows (r : J.request) (flow : F.t) =
  match r.J.rows with
  | Some rows -> rows
  | None ->
    max 1
      (int_of_float
         (r.J.overhead
          *. float_of_int
               flow.F.base_placement.Place.Placement.fp
                 .Place.Floorplan.num_rows))

(* Counter deltas the optimizer's thermal work is priced from. *)
let pricing_counts () =
  let hist_sum name =
    match Obs.Metrics.histogram name with
    | Some h -> h.Obs.Metrics.sum
    | None -> 0.0
  in
  [ ("cg_iterations", hist_sum "thermal.cg.iterations");
    ("mesh_misses", float_of_int (Harness.counter "thermal.mesh.cache.misses"));
    ("blur_kernels", float_of_int (Harness.counter "thermal.blur.kernels"));
    ("blur_evals", float_of_int (Harness.counter "thermal.blur.evals")) ]

(* [Optimizer.greedy_rows] as one opaque core call, with the counter
   deltas that price its thermal share. *)
let greedy_rows ?metric (flow : F.t) ~rows ?chunk ?stride ?coarse_nx () =
  let c0 = pricing_counts () in
  let r, ms =
    Pstats.time_ms @@ fun () ->
    Postplace.Optimizer.greedy_rows flow ~rows ?chunk ?stride ?coarse_nx ()
  in
  let c1 = pricing_counts () in
  S.add_layer "core" ms;
  Option.iter (fun m -> S.record m ms) metric;
  S.add_opaque
    { S.o_ms = ms;
      (* 20 is the optimizer's default coarse grid *)
      o_grid = (Option.value coarse_nx ~default:20, flow.F.mesh_precond);
      o_counts = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) c0 c1 };
  r

type job_output = {
  peak_rise_k : float;
  base_peak_rise_k : float;
  plan_hash : string option;
}

let execute ~(flow : F.t) ~(base : F.evaluation) (r : J.request) =
  let finish ?plan pl =
    let ev = evaluate_exn flow pl in
    { peak_rise_k = ev.F.metrics.Thermal.Metrics.peak_rise_k;
      base_peak_rise_k = base.F.metrics.Thermal.Metrics.peak_rise_k;
      plan_hash = Option.map plan_hash plan }
  in
  let default () =
    S.leaf ~metric:"core.default_ms" "core" @@ fun () ->
    F.apply_default flow
      ~utilization:(r.J.utilization /. (1.0 +. r.J.overhead))
  in
  match r.J.technique with
  | J.Default -> finish (default ())
  | J.Eri ->
    let rows = derived_rows r flow in
    let res =
      S.leaf ~metric:"core.eri_ms" "core" @@ fun () ->
      F.apply_eri flow ~base ~rows
    in
    finish ~plan:res.Postplace.Technique.inserted_after
      res.Postplace.Technique.eri_placement
  | J.Hw ->
    let de = evaluate_exn flow (default ()) in
    finish
      (S.leaf ~metric:"core.hw_ms" "core" @@ fun () -> F.apply_hw flow ~on:de ())
  | J.Optimize ->
    let rows = match r.J.rows with Some rows -> rows | None -> 2 in
    let metric = if rows = 4 then Some "core.optimize_peak_ms" else None in
    let res = greedy_rows ?metric flow ~rows () in
    let plan = res.Postplace.Optimizer.plan in
    finish ~plan:plan.Postplace.Technique.inserted_after
      plan.Postplace.Technique.eri_placement
