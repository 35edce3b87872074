type material = {
  volumetric_heat_j_m3k : float;
}

let default_capacitance = { volumetric_heat_j_m3k = 1.6e6 }

type response = {
  times_s : float array;
  peak_rise_k : float array;
  steady_peak_k : float;
  tau_63_s : float;
  cg_iterations : int;
}

let node_capacitances cfg ~extent material =
  let stack = cfg.Mesh.stack in
  let nz = Stack.num_layers stack in
  let n = cfg.Mesh.nx * cfg.Mesh.ny * nz in
  let dx = Geo.Rect.width extent /. float_of_int cfg.Mesh.nx *. 1e-6 in
  let dy = Geo.Rect.height extent /. float_of_int cfg.Mesh.ny *. 1e-6 in
  let c = Array.make n 0.0 in
  for iz = 0 to nz - 1 do
    let dz = stack.Stack.layers.(iz).Stack.thickness_um *. 1e-6 in
    let cap = material.volumetric_heat_j_m3k *. dx *. dy *. dz in
    for iy = 0 to cfg.Mesh.ny - 1 do
      for ix = 0 to cfg.Mesh.nx - 1 do
        c.(Mesh.node_index cfg ~ix ~iy ~iz) <- cap
      done
    done
  done;
  c

(* The backward-Euler operator G + C/dt for one (config, extent): the
   fault-free conductance assembly with the capacitance added to its
   diagonal. Used for the fine system and, rediscretized at halved
   lateral resolution, for the coarse multigrid levels. *)
let shifted_matrix cfg ~extent ~material ~dt_s =
  let a = Mesh.assemble_raw cfg ~extent in
  let caps = node_capacitances cfg ~extent material in
  let diag = a.Stencil.diag in
  Array.iteri (fun i c -> diag.(i) <- diag.(i) +. (c /. dt_s)) caps;
  (a, caps)

(* Backward Euler: (G + C/dt) T_{k+1} = P + (C/dt) T_k. The shifted matrix
   is SPD whenever G is, so CG applies; consecutive steps warm-start. *)
let step_response cfg ~power ?(material = default_capacitance)
    ?(dt_s = 2e-6) ?(steps = 60) ?(precond = Mesh.Pc_ssor) () =
  if dt_s <= 0.0 || steps <= 0 then
    invalid_arg "Transient.step_response: non-positive dt or steps";
  let problem = Mesh.build cfg ~power in
  let p = Mesh.rhs problem in
  let extent = Geo.Grid.extent power in
  let iterations = ref 0 in
  (* steady state for normalization — through the full solve path (matrix
     MRU cache, configured preconditioner, escalation ladder), not a raw
     unpreconditioned CG on a privately rebuilt matrix *)
  let steady =
    Mesh.solve ~precond:(Mesh.precond_of_choice problem precond) problem
  in
  iterations := !iterations + steady.Mesh.cg_iterations;
  let steady_peak_k = Array.fold_left Float.max 0.0 steady.Mesh.temp in
  (* one shifted matrix assembled for the whole window; its multigrid
     hierarchy (when requested) is built on the shifted operator itself,
     with coarse levels rediscretizing G + C/dt at halved resolution *)
  let shifted, caps = shifted_matrix cfg ~extent ~material ~dt_s in
  let n = Stencil.dim shifted in
  let step_precond =
    match precond with
    | Mesh.Pc_jacobi -> Cg.Jacobi
    | Mesh.Pc_ssor -> Cg.Ssor Cg.ssor_omega
    | Mesh.Pc_mg ->
      let h =
        Multigrid.build ~fine:shifted ~assemble:(fun ~nx ~ny ->
            let coarse = { cfg with Mesh.nx; ny } in
            fst (shifted_matrix coarse ~extent ~material ~dt_s))
      in
      Cg.Multigrid h
  in
  let temp = ref (Array.make n 0.0) in
  let times = Array.make (steps + 1) 0.0 in
  let peaks = Array.make (steps + 1) 0.0 in
  for k = 1 to steps do
    let rhs =
      Array.init n (fun i -> p.(i) +. (caps.(i) /. dt_s *. !temp.(i)))
    in
    let sol =
      Cg.solve shifted ~b:rhs ~tol:1e-10 ~x0:!temp ~precond:step_precond
        ~label:"transient" ()
    in
    iterations := !iterations + sol.Cg.iterations;
    temp := sol.Cg.x;
    times.(k) <- float_of_int k *. dt_s;
    peaks.(k) <- Array.fold_left Float.max 0.0 !temp
  done;
  Obs.Metrics.count "thermal.transient.steps" ~by:steps;
  Obs.Metrics.observe "thermal.transient.iterations"
    (float_of_int !iterations);
  (* time to 63.2% of the steady peak, linear interpolation *)
  let target = 0.632 *. steady_peak_k in
  let tau =
    let rec find k =
      if k > steps then times.(steps) (* not reached within the window *)
      else if peaks.(k) >= target then begin
        (* A flat step — zero power map, or a response that saturated
           within one dt — has no slope to interpolate along; dividing by
           the zero rise would make tau NaN (0/0 when the target is also
           the flat value). The crossing is then at the step itself. *)
        let rise = peaks.(k) -. peaks.(k - 1) in
        if rise <= 0.0 then times.(k)
        else begin
          let frac = (target -. peaks.(k - 1)) /. rise in
          times.(k - 1) +. (frac *. (times.(k) -. times.(k - 1)))
        end
      end
      else find (k + 1)
    in
    find 1
  in
  { times_s = times; peak_rise_k = peaks; steady_peak_k; tau_63_s = tau;
    cg_iterations = !iterations }
