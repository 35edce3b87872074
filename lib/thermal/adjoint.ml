(* Adjoint sensitivity of a smoothed peak-temperature objective.

   The steady-state solve is linear, G T = P, with G symmetric positive
   definite. For any differentiable objective f(T), the chain rule gives
   df/dP = G^-T (df/dT) = G^-1 (df/dT) — the transpose solve IS a plain
   solve because G is self-adjoint — so the full per-tile sensitivity map
   costs exactly one extra CG solve, sharing the cached matrix, multigrid
   hierarchy and warm starts of the forward path.

   The objective is a log-sum-exp smoothing of the active-layer peak:

     f(T) = (1/beta) log sum_i exp(beta T_i)   over active-layer nodes

   which upper-bounds the true peak, converges to it as beta grows, and
   has the softmax weights as its gradient — a probability distribution
   concentrated on the hottest tiles, so the adjoint source is localized
   exactly where whitespace buys temperature. *)

let default_sharpness = 4.0

type t = {
  forward : Mesh.solution;
  sharpness : float;
  peak_rise_k : float;
  smoothed_peak_k : float;
  lambda : float array;
  sensitivity : Geo.Grid.t;
  cg_iterations : int;
}

let check_sharpness what sharpness =
  if not (Float.is_finite sharpness) || sharpness <= 0.0 then
    invalid_arg (what ^ ": sharpness must be positive")

(* Hard peak and stabilized log-sum-exp of an active-layer field; the sum
   runs in grid order. *)
let lse ~sharpness field =
  let peak = Geo.Grid.max_value field in
  let sum =
    Geo.Grid.fold field ~init:0.0 ~f:(fun acc v ->
        acc +. exp (sharpness *. (v -. peak)))
  in
  (peak, sum)

let spectral_sensitivity ?(sharpness = default_sharpness) kernel ~power =
  check_sharpness "Adjoint.spectral_sensitivity" sharpness;
  let field = Blur.field kernel ~power in
  let peak, sum = lse ~sharpness field in
  Blur.field kernel
    ~power:
      (Geo.Grid.map field ~f:(fun v -> exp (sharpness *. (v -. peak)) /. sum))

let smoothed_peak ~sharpness s =
  check_sharpness "Adjoint.smoothed_peak" sharpness;
  let peak, sum = lse ~sharpness (Mesh.active_layer_grid s) in
  peak +. (log sum /. sharpness)

let solve_result ?(tol = Cg.default_tol) ?(sharpness = default_sharpness)
    ?precond ?x0 ?forward p =
  Obs.Trace.with_span "thermal.adjoint.solve" @@ fun () ->
  check_sharpness "Adjoint.solve" sharpness;
  let n = Array.length (Mesh.rhs p) in
  let fwd =
    match forward with
    | Some (s : Mesh.solution) ->
      if Array.length s.Mesh.temp <> n then
        invalid_arg "Adjoint.solve: forward solution does not match problem";
      Ok s
    | None -> Mesh.solve_result ~tol ?precond p
  in
  match fwd with
  | Error e -> Error e
  | Ok fwd ->
    let cfg = Mesh.config p in
    let zp = cfg.Mesh.stack.Stack.power_layer in
    let field = Mesh.active_layer_grid fwd in
    let peak_rise_k, sum = lse ~sharpness field in
    let smoothed_peak_k = peak_rise_k +. (log sum /. sharpness) in
    (* adjoint source: df/dT = softmax weights on the active layer, zero
       on every other node *)
    let rhs = Array.make n 0.0 in
    Geo.Grid.iteri field ~f:(fun ~ix ~iy v ->
        rhs.(Mesh.node_index cfg ~ix ~iy ~iz:zp) <-
          exp (sharpness *. (v -. peak_rise_k)) /. sum);
    (match Mesh.solve_result ~tol ?precond ?x0 (Mesh.with_rhs p rhs) with
     | Error e -> Error e
     | Ok adj ->
       (* power enters the rhs with unit coefficient at the power-layer
          node of its tile, so lambda restricted to that layer IS the
          per-tile df/d(W injected) map — in K/W *)
       let sensitivity = Mesh.active_layer_grid adj in
       Obs.Metrics.count "thermal.adjoint.solves";
       Obs.Metrics.observe "thermal.adjoint.iterations"
         (float_of_int adj.Mesh.cg_iterations);
       Obs.Metrics.observe "thermal.adjoint.peak_sensitivity_k_per_w"
         (Geo.Grid.max_value sensitivity);
       Obs.Metrics.observe "thermal.adjoint.smoothing_gap_k"
         (smoothed_peak_k -. peak_rise_k);
       Ok
         { forward = fwd; sharpness; peak_rise_k;
           smoothed_peak_k; lambda = adj.Mesh.temp; sensitivity;
           cg_iterations = adj.Mesh.cg_iterations })

let solve ?tol ?sharpness ?precond ?x0 ?forward p =
  match solve_result ?tol ?sharpness ?precond ?x0 ?forward p with
  | Ok a -> a
  | Error e -> Robust.Error.raise_ e
