type result = {
  thermal_map : Geo.Grid.t;
  metrics : Thermal.Metrics.t;
  iterations : int;
  converged : bool;
  open_loop_peak_k : float;
  leakage_w : float;
  nominal_leakage_w : float;
}

let solve_with flow pl per_cell_w =
  let cfg = flow.Flow.mesh_config in
  let power =
    Power.Map.power_map pl ~per_cell_w ~nx:cfg.Thermal.Mesh.nx
      ~ny:cfg.Thermal.Mesh.ny
  in
  let solution = Thermal.Mesh.solve (Thermal.Mesh.build cfg ~power) in
  Thermal.Mesh.active_layer_grid solution

let rise_lookup thermal pl cid =
  let x, y = Place.Placement.cell_center pl cid in
  match Geo.Grid.tile_of_point thermal ~x ~y with
  | Some (ix, iy) -> Geo.Grid.get thermal ~ix ~iy
  | None -> 0.0

let evaluate flow pl ?(max_iter = 12) ?(tol_k = 1e-3) () =
  let report = flow.Flow.power_report in
  let tech = flow.Flow.tech in
  let open_loop = solve_with flow pl report.Power.Model.per_cell_w in
  let open_loop_peak_k = Geo.Grid.max_value open_loop in
  let rec iterate thermal prev_peak iter =
    let per_cell =
      Power.Model.per_cell_with_leakage_at tech report
        ~rise_of_cell:(rise_lookup thermal pl)
    in
    let thermal' = solve_with flow pl per_cell in
    let peak = Geo.Grid.max_value thermal' in
    if peak > 200.0 then
      Robust.Error.raise_
        (Robust.Error.Invariant_violation
           { check = "electrothermal.runaway";
             detail =
               Printf.sprintf
                 "peak rise %.1f K exceeds 200 K at coupling iteration %d"
                 peak (iter + 1) });
    if Float.abs (peak -. prev_peak) <= tol_k || iter >= max_iter then begin
      let leakage =
        Array.fold_left ( +. ) 0.0
          (Power.Model.per_cell_with_leakage_at tech report
             ~rise_of_cell:(rise_lookup thermal' pl))
        -. Array.fold_left ( +. ) 0.0 report.Power.Model.per_cell_dynamic_w
      in
      { thermal_map = thermal';
        metrics = Thermal.Metrics.of_map thermal';
        iterations = iter + 1;
        converged = Float.abs (peak -. prev_peak) <= tol_k;
        open_loop_peak_k;
        leakage_w = leakage;
        nominal_leakage_w = report.Power.Model.leakage_w }
    end
    else iterate thermal' peak (iter + 1)
  in
  iterate open_loop open_loop_peak_k 0
