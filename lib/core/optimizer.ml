type exact_reason = Screen_exact | Faults_armed | Non_uniform | Parity

type realization = Spectral | Exact of exact_reason

let realization_labels = function
  | Spectral -> [ ("realization", "spectral"); ("reason", "uniform") ]
  | Exact reason ->
    [ ("realization", "exact");
      ( "reason",
        match reason with
        | Screen_exact -> "screen_exact"
        | Faults_armed -> "faults_armed"
        | Non_uniform -> "non_uniform"
        | Parity -> "parity" ) ]

let realization_name r = List.assoc "realization" (realization_labels r)

type result = {
  plan : Technique.eri_result;
  predicted_peak_k : float;
  evaluations : int;
  blur_evaluations : int;
  adjoint_evaluations : int;
  realization : realization option;
  spectral_parity_rel : float option;
}

let peak_of flow pl ~nx =
  let cfg =
    { flow.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }
  in
  let power =
    Power.Map.power_map pl ~per_cell_w:flow.Flow.per_cell_w ~nx ~ny:nx
  in
  let solution = Thermal.Mesh.solve (Thermal.Mesh.build cfg ~power) in
  (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid solution))
    .Thermal.Metrics.peak_rise_k

let evaluate_plan flow ~after ~nx =
  let r = Technique.apply_row_insertions flow.Flow.base_placement after in
  peak_of flow r.Technique.eri_placement ~nx

(* SSOR beats Jacobi by ~3x in iterations on the mesh stencil; candidate
   solves don't need Jacobi's cheaper apply because the matrix is reused
   from the cache anyway. Ranking over-relaxes harder than the
   user-facing [Thermal.Cg.ssor_omega]. *)
let ranking_omega = 1.6

let eval_precond = Thermal.Cg.Ssor ranking_omega

(* Candidate *ranking* only has to separate peaks that differ by
   millikelvins, so trial solves stop at 1e-6 relative (inexact
   evaluation); the chosen plan is re-scored at full tolerance before it
   is reported. CG convergence is roughly linear in requested digits, so
   this alone saves ~40% of the ranking iterations. *)
let rank_tol = 1e-6

(* The power map of a trial plan — all a blur screening pass needs. *)
let trial_power flow ~after ~nx =
  let r = Technique.apply_row_insertions flow.Flow.base_placement after in
  Power.Map.power_map r.Technique.eri_placement
    ~per_cell_w:flow.Flow.per_cell_w ~nx ~ny:nx

(* The thermal problem of a trial plan on the [nx] x [nx] evaluation
   mesh, with its power map. All trial placements with the same number of
   inserted rows share the die extent, so their builds share one cached
   matrix. *)
let trial_problem flow ~after ~nx =
  let cfg = { flow.Flow.mesh_config with Thermal.Mesh.nx; ny = nx } in
  let power = trial_power flow ~after ~nx in
  (power, Thermal.Mesh.build cfg ~power)

(* The flow's preconditioner for a trial problem; the ranking SSOR by
   default. *)
let trial_precond flow problem =
  match flow.Flow.mesh_precond with
  | Some choice -> Thermal.Mesh.precond_of_choice problem choice
  | None -> eval_precond

(* One exact solve of a trial problem, optionally warm-started from the
   incumbent temperature field [x0] — most of the optimizer's speedup
   lives in warm starts on a shared matrix. *)
let solve_trial flow problem ~x0 ~tol =
  (* cancellation point: candidate solves run at millisecond granularity,
     so a deadline abort requested by the serve watchdog lands here *)
  Robust.Cancel.check ();
  let solution =
    Thermal.Mesh.solve ~tol ~precond:(trial_precond flow problem) ?x0 problem
  in
  let peak =
    (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid solution))
      .Thermal.Metrics.peak_rise_k
  in
  (peak, solution)

(* The spectral kernel is built once per mesh and then trusted for
   thousands of evaluations, so under [Screen_auto] any armed fault —
   whichever stage it targets — forces the exact tier: injected faults
   must reach the solve path they are aimed at, not be blurred away. *)
let screening_enabled flow =
  match flow.Flow.screen with
  | Flow.Screen_exact -> false
  | Flow.Screen_fft -> true
  | Flow.Screen_auto ->
    not (List.exists Robust.Faults.armed Robust.Faults.all)

(* Candidate insertion positions: every [stride]-th row of the base
   floorplan. *)
let candidate_rows flow ~stride =
  let num_rows =
    flow.Flow.base_placement.Place.Placement.fp.Place.Floorplan.num_rows
  in
  List.init ((num_rows + stride - 1) / stride) (fun i -> i * stride)

(* The paper's scheme: rank candidates by their (screened or exact)
   predicted peak. *)
let peak_rows flow ~rows ~chunk ~stride ~coarse_nx ~leaders =
  Obs.Trace.with_span "optimizer.greedy_rows" @@ fun () ->
  let base = flow.Flow.base_placement in
  let candidates = candidate_rows flow ~stride in
  let num_cands = List.length candidates in
  let solve after ~x0 ~tol =
    solve_trial flow (snd (trial_problem flow ~after ~nx:coarse_nx)) ~x0 ~tol
  in
  let _, seed = trial_problem flow ~after:[] ~nx:coarse_nx in
  (* screening pays one anchor solve per round; with no more candidates
     than leaders every candidate gets an exact solve anyway, so the blur
     tier cannot win and is skipped. A stencil without an analytic
     transfer (side walls, a perturbed matrix) has no kernel to screen
     with: every round of the run shares its stack, so the seed decides
     for all of them. *)
  let screen =
    screening_enabled flow && num_cands > leaders
    && Result.is_ok (Thermal.Mesh.analytic_blur seed)
  in
  let evaluations = ref 0 in
  let blur_evaluations = ref 0 in
  (* the plan is kept reversed: committing a chunk is a prepend, and
     [Technique.apply_row_insertions] sorts its input, so order is free *)
  let rev_plan = ref [] in
  let remaining = ref rows in
  (* warm-start seed: the incumbent plan's temperature field *)
  let _, sol0 = solve_trial flow seed ~x0:None ~tol:rank_tol in
  incr evaluations;
  let warm = ref sol0.Thermal.Mesh.temp in
  while !remaining > 0 do
    let step = min chunk !remaining in
    let x0 = Some !warm in
    let trial_of cand =
      List.rev_append (List.init step (fun _ -> cand)) !rev_plan
    in
    (* candidate trials are independent: evaluate them on the pool. The
       list order is preserved, and selection below walks it sequentially
       with the seed's tie-break (strict improvement wins), so parallel
       and sequential runs pick identical plans. Under fft screening the
       non-leader entries are [None]; the leaders are solved with exactly
       the inputs the exact tier would use (same x0, tolerance and
       preconditioner), so whenever the leader set contains the exact
       argmin the committed plan is bit-identical to exact screening. *)
    let outcomes =
      if screen then begin
        Obs.Trace.with_span "optimizer.screen" @@ fun () ->
        (* every trial in this round shares (config, extent), so the
           kernel of the first candidate's mesh serves all of them (and
           is cached on the mesh MRU entry) *)
        let first = List.hd candidates in
        let first_power, first_problem =
          trial_problem flow ~after:(trial_of first) ~nx:coarse_nx
        in
        let kernel = Thermal.Mesh.blur first_problem in
        (* anchor the round with one exact (rank-tolerance) solve of the
           first candidate and rank by blur corrected with the anchor's
           exact-minus-blurred field. The transfer is exact, so the
           correction is the anchor's solver error at rank tolerance:
           estimates then carry the error the leader solves they stand
           in for carry. *)
        let first_peak, first_sol =
          solve_trial flow first_problem ~x0 ~tol:rank_tol
        in
        let correction =
          Geo.Grid.map2 (Thermal.Mesh.active_layer_grid first_sol)
            (Thermal.Blur.field kernel ~power:first_power) ~f:( -. )
        in
        let blurred =
          Parallel.Pool.map_list candidates ~f:(fun cand ->
              Thermal.Blur.peak kernel ~correction
                ~power:(trial_power flow ~after:(trial_of cand)
                          ~nx:coarse_nx))
        in
        blur_evaluations := !blur_evaluations + num_cands + 1;
        (* stable top-k on (corrected peak, candidate index): equal peaks
           keep candidate order, matching the exact tier's first-wins
           tie-break *)
        let ranked =
          List.sort compare (List.mapi (fun i p -> (p, i)) blurred)
        in
        let is_leader = Array.make num_cands false in
        List.iteri
          (fun rank (_, i) -> if rank < leaders then is_leader.(i) <- true)
          ranked;
        (* the anchor solve is reused below when candidate 0 leads (the
           generic outcome counter picks it up there); otherwise it was
           an extra exact solve and is accounted for here *)
        if not is_leader.(0) then incr evaluations;
        Parallel.Pool.map_list
          (List.mapi (fun i c -> (i, c)) candidates)
          ~f:(fun (i, cand) ->
              if not is_leader.(i) then None
              else if i = 0 then
                (* the anchor solve used the leader inputs already *)
                Some (first_peak, first_sol)
              else Some (solve (trial_of cand) ~x0 ~tol:rank_tol))
      end
      else
        Parallel.Pool.map_list candidates ~f:(fun cand ->
            Some (solve (trial_of cand) ~x0 ~tol:rank_tol))
    in
    List.iter (fun o -> if o <> None then incr evaluations) outcomes;
    let best = ref None in
    List.iter2
      (fun cand outcome ->
         match outcome with
         | None -> ()
         | Some (peak, sol) ->
           (match !best with
            | Some (_, best_peak, _) when best_peak <= peak -> ()
            | _ -> best := Some (cand, peak, sol)))
      candidates outcomes;
    (match !best with
     | Some (cand, _, sol) ->
       rev_plan := List.rev_append (List.init step (fun _ -> cand)) !rev_plan;
       warm := sol.Thermal.Mesh.temp
     | None -> assert false);
    remaining := !remaining - step
  done;
  let plan_list = List.rev !rev_plan in
  let final = Technique.apply_row_insertions base plan_list in
  (* re-score the winner at full tolerance, warm-started from its own
     ranking solution (a few iterations to polish 1e-6 down to 1e-10) *)
  let peak, _ =
    solve plan_list ~x0:(Some !warm) ~tol:Thermal.Cg.default_tol
  in
  incr evaluations;
  { plan = final; predicted_peak_k = peak; evaluations = !evaluations;
    blur_evaluations = !blur_evaluations; adjoint_evaluations = 0;
    realization = None; spectral_parity_rel = None }

(* ---- Gradient guide ----------------------------------------------------

   One sensitivity map at the incumbent prices *every* candidate: the
   adjoint field lambda satisfies G lambda = df/dT, so for any trial
   power map P the smoothed peak is, to first order,
   f(P) ~ f(P_inc) + <lambda, P - P_inc>. The incumbent term is common
   to all candidates of a round, so ranking by <lambda, P_c> needs no
   per-candidate solve at all. lambda on the power layer comes from an
   adjoint CG solve (Exact) or from the spectral transfer (Spectral). *)

(* <sensitivity, power>: the candidate's first-order objective up to the
   round-constant incumbent term. Both grids live on the coarse
   evaluation mesh's tile counts; the candidate's die is slightly taller
   than the incumbent's, which is part of the first-order approximation
   the confirmation solve absorbs. *)
let sensitivity_score sens power =
  let acc = ref 0.0 in
  Geo.Grid.iteri power ~f:(fun ~ix ~iy p ->
      acc := !acc +. (Geo.Grid.get sens ~ix ~iy *. p));
  !acc

(* Euclidean projection onto the scaled simplex {x >= 0, sum x = total}
   (sort-based: theta is the largest valid shift of the descending
   cumulative means). *)
let project_simplex x ~total =
  let n = Array.length x in
  let u = Array.copy x in
  Array.sort (fun a b -> Float.compare b a) u;
  let theta = ref 0.0 in
  let css = ref 0.0 in
  for j = 0 to n - 1 do
    css := !css +. u.(j);
    let t = (!css -. total) /. float_of_int (j + 1) in
    if u.(j) -. t > 0.0 then theta := t
  done;
  Array.map (fun v -> Float.max 0.0 (v -. !theta)) x

(* Round a continuous allocation (summing to [total]) to integers by
   largest remainder, ties to the lower candidate index — the same
   first-wins determinism as the peak guide's selection walk. *)
let largest_remainder x ~total =
  let n = Array.length x in
  let counts = Array.map (fun v -> int_of_float (Float.floor v)) x in
  let assigned = Array.fold_left ( + ) 0 counts in
  let rem = Array.mapi (fun i v -> (v -. Float.floor v, i)) x in
  Array.sort
    (fun (a, i) (b, j) ->
       match Float.compare b a with 0 -> compare i j | c -> c)
    rem;
  let missing = max 0 (min n (total - assigned)) in
  for k = 0 to missing - 1 do
    let _, i = rem.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  counts

(* Distribute [step] rows over the candidates from their first-order
   scores: projected-gradient descent of sum_i g_i x_i + (gamma/2)|x|^2
   over {x >= 0, sum x = step}, then largest-remainder rounding. The
   regularizer weight gamma = (g_max - g_min)/step scales the quadratic
   pull to the score spread, so mass concentrates on the best-scoring
   rows without collapsing onto one when several are nearly as good.
   [prepass_steps = 0] (or a flat score vector) skips the continuous
   phase: the whole chunk goes to the argmin score — exactly the peak
   guide's move. *)
let allocate scores ~step ~prepass_steps =
  let n = Array.length scores in
  let argmin () =
    let best = ref 0 in
    Array.iteri (fun i g -> if g < scores.(!best) then best := i) scores;
    let counts = Array.make n 0 in
    counts.(!best) <- step;
    counts
  in
  let g_min = Array.fold_left Float.min infinity scores in
  let g_max = Array.fold_left Float.max neg_infinity scores in
  let gamma = (g_max -. g_min) /. float_of_int step in
  if prepass_steps <= 0 || not (gamma > 0.0) then argmin ()
  else begin
    (* eta = 1/(2 gamma) contracts the fixed-point residual by half per
       step, so [prepass_steps] trades allocation sharpness for work *)
    let eta = 1.0 /. (2.0 *. gamma) in
    let x = ref (Array.make n (float_of_int step /. float_of_int n)) in
    for _ = 1 to prepass_steps do
      let moved =
        Array.mapi (fun i v -> v -. (eta *. (scores.(i) +. (gamma *. v)))) !x
      in
      x := project_simplex moved ~total:(float_of_int step)
    done;
    largest_remainder !x ~total:step
  end

(* Work spent by a gradient run, across realizations: a spectral attempt
   abandoned on parity keeps its count. *)
type tally = {
  mutable exact_solves : int;
  mutable adjoint_solves : int;
  mutable spectral_applications : int;
}

(* The thermal operator the gradient loop is written against: the
   smoothed-peak sensitivity map at the incumbent plan, a hook run after
   each committed chunk, and the confirmed peak of the final plan. *)
type operator = {
  sensitivity : int list -> Geo.Grid.t;
  committed : int list -> unit;
  confirm : int list -> float;
}

(* A spectral run whose final plan fails the parity check hands over to
   Exact. *)
exception Parity_miss

(* Exact: CG forward and adjoint solves on the cached mesh. The seed
   problem is the empty plan's, built once by the caller; the incumbent's
   rank-tolerance solution doubles as the adjoint's forward input and
   the warm start of the next confirmation, and each adjoint warm-starts
   from the previous round's lambda (the softmax source drifts slowly
   between nearby plans). *)
let exact_operator flow ~nx ~seed tally =
  let solve after ~x0 ~tol =
    solve_trial flow (snd (trial_problem flow ~after ~nx)) ~x0 ~tol
  in
  let _, sol0 = solve_trial flow seed ~x0:None ~tol:rank_tol in
  tally.exact_solves <- tally.exact_solves + 1;
  let incumbent = ref sol0 in
  let lambda = ref None in
  let warm () = Some !incumbent.Thermal.Mesh.temp in
  { sensitivity =
      (fun rev_plan ->
         let _, problem = trial_problem flow ~after:rev_plan ~nx in
         let adj =
           Thermal.Adjoint.solve ~tol:rank_tol
             ~precond:(trial_precond flow problem) ?x0:!lambda
             ~forward:!incumbent problem
         in
         tally.adjoint_solves <- tally.adjoint_solves + 1;
         lambda := Some adj.Thermal.Adjoint.lambda;
         adj.Thermal.Adjoint.sensitivity);
    committed =
      (fun rev_plan ->
         let _, sol = solve rev_plan ~x0:(warm ()) ~tol:rank_tol in
         tally.exact_solves <- tally.exact_solves + 1;
         incumbent := sol);
    confirm =
      (fun plan ->
         let peak, _ = solve plan ~x0:(warm ()) ~tol:Thermal.Cg.default_tol in
         tally.exact_solves <- tally.exact_solves + 1;
         peak) }

(* The largest relative gap between the spectral and the confirmed peak
   a spectral run may show before its plan is recomputed on Exact. *)
let parity_tol = 1e-6

let spectral_parity ~spectral ~exact =
  let rel =
    if spectral = exact then 0.0
    else Float.abs (spectral -. exact) /. Float.abs exact
  in
  (rel, rel <= parity_tol)

(* Spectral: the analytic power-layer transfer of each round's mesh
   gives the sensitivity with two FFT applications
   ([Thermal.Adjoint.spectral_sensitivity]) — no solve per round, and
   nothing to confirm between rounds. The final plan gets one cold
   full-tolerance exact solve, checked against its spectral peak. The
   caller has checked the seed's stencil, and every round's mesh shares
   its stack, so [Thermal.Mesh.blur] has a kernel for each of them. *)
let spectral_operator flow ~nx ~seed tally ~parity ~check =
  { sensitivity =
      (fun rev_plan ->
         (* the first round's incumbent is the empty plan: the seed *)
         let power, problem =
           if rev_plan = [] then seed
           else trial_problem flow ~after:rev_plan ~nx
         in
         tally.spectral_applications <- tally.spectral_applications + 2;
         Thermal.Adjoint.spectral_sensitivity (Thermal.Mesh.blur problem)
           ~power);
    committed = (fun _ -> ());
    confirm =
      (fun plan ->
         let power, problem = trial_problem flow ~after:plan ~nx in
         let peak, _ =
           solve_trial flow problem ~x0:None ~tol:Thermal.Cg.default_tol
         in
         tally.exact_solves <- tally.exact_solves + 1;
         let spectral =
           Thermal.Blur.peak (Thermal.Mesh.blur problem) ~power
         in
         tally.spectral_applications <- tally.spectral_applications + 1;
         let rel, ok = check ~spectral ~exact:peak in
         parity := Some rel;
         Obs.Metrics.gauge "optimizer.spectral_parity_rel" rel;
         if not ok then begin
           Obs.Log.warn
             (Printf.sprintf
                "Optimizer: spectral peak %.17g K is %.3g off the confirmed \
                 %.17g K (tolerance %g); recomputing the plan on the exact \
                 operator"
                spectral rel peak parity_tol);
           raise Parity_miss
         end;
         peak) }

(* DiffChip's forward/adjoint loop, once for either operator: price
   every candidate by the inner product of the sensitivity map with its
   re-binned power map (no solve — the thermal system is linear, so the
   inner product is the candidate's first-order peak up to a
   round-constant), allocate the chunk, commit it. *)
let gradient_loop flow op ~rows ~chunk ~stride ~nx ~prepass_steps =
  let base = flow.Flow.base_placement in
  let candidates = Array.of_list (candidate_rows flow ~stride) in
  let rev_plan = ref [] in
  let remaining = ref rows in
  while !remaining > 0 do
    Robust.Cancel.check ();
    let step = min chunk !remaining in
    let sens = op.sensitivity !rev_plan in
    let trial_of cand =
      List.rev_append (List.init step (fun _ -> cand)) !rev_plan
    in
    (* the pool parallelism is over the re-binning; order is preserved *)
    let scores =
      Array.of_list
        (Parallel.Pool.map_list (Array.to_list candidates) ~f:(fun cand ->
             sensitivity_score sens
               (trial_power flow ~after:(trial_of cand) ~nx)))
    in
    let counts = allocate scores ~step ~prepass_steps in
    Array.iteri
      (fun i n ->
         if n > 0 then
           rev_plan :=
             List.rev_append (List.init n (fun _ -> candidates.(i))) !rev_plan)
      counts;
    op.committed !rev_plan;
    remaining := !remaining - step
  done;
  let plan_list = List.rev !rev_plan in
  (Technique.apply_row_insertions base plan_list, op.confirm plan_list)

let gradient_rows_checked ~check flow ~rows ~chunk ~stride ~coarse_nx:nx
    ~prepass_steps =
  Obs.Trace.with_span "optimizer.gradient_rows" @@ fun () ->
  let tally =
    { exact_solves = 0; adjoint_solves = 0; spectral_applications = 0 }
  in
  let parity = ref None in
  (* the empty plan's power map and problem: the uniformity probe, the
     exact realization's seed and the spectral realization's first
     incumbent, built once so an armed fault fires exactly where it
     always has *)
  let seed = trial_problem flow ~after:[] ~nx in
  (* counted as each realization starts, so a run that ends in a
     structured solver error still reports which one it was *)
  let start realization operator =
    Obs.Metrics.count "optimizer.realization"
      ~labels:(realization_labels realization);
    (realization,
     gradient_loop flow (operator ()) ~rows ~chunk ~stride ~nx ~prepass_steps)
  in
  let exact reason =
    start (Exact reason) (fun () ->
        exact_operator flow ~nx ~seed:(snd seed) tally)
  in
  let realization, (plan, peak) =
    match flow.Flow.screen with
    | Flow.Screen_exact -> exact Screen_exact
    | _ when not (screening_enabled flow) -> exact Faults_armed
    | _ when Result.is_error (Thermal.Mesh.analytic_blur (snd seed)) ->
      exact Non_uniform
    | _ ->
      (try
         start Spectral (fun () ->
             spectral_operator flow ~nx ~seed tally ~parity ~check)
       with Parity_miss -> exact Parity)
  in
  { plan; predicted_peak_k = peak; evaluations = tally.exact_solves;
    blur_evaluations = tally.spectral_applications;
    adjoint_evaluations = tally.adjoint_solves;
    realization = Some realization; spectral_parity_rel = !parity }

let gradient_rows = gradient_rows_checked ~check:spectral_parity

let greedy_rows flow ~rows ?(chunk = 4) ?(stride = 4) ?(coarse_nx = 20)
    ?(leaders = 3) ?(prepass_steps = 8) () =
  if rows <= 0 then invalid_arg "Optimizer.greedy_rows: non-positive budget";
  if chunk <= 0 || stride <= 0 || coarse_nx <= 0 || leaders <= 0 then
    invalid_arg "Optimizer.greedy_rows: non-positive parameter";
  if prepass_steps < 0 then
    invalid_arg "Optimizer.greedy_rows: negative prepass_steps";
  let result =
    match flow.Flow.guide with
    | Flow.Guide_peak ->
      peak_rows flow ~rows ~chunk ~stride ~coarse_nx ~leaders
    | Flow.Guide_gradient ->
      gradient_rows flow ~rows ~chunk ~stride ~coarse_nx ~prepass_steps
  in
  Obs.Metrics.count "optimizer.thermal_solves" ~by:result.evaluations;
  if result.blur_evaluations > 0 then
    Obs.Metrics.count "optimizer.blur_evaluations"
      ~by:result.blur_evaluations;
  if result.adjoint_evaluations > 0 then
    Obs.Metrics.count "optimizer.adjoint_solves"
      ~by:result.adjoint_evaluations;
  Obs.Metrics.observe "optimizer.predicted_peak_k" result.predicted_peak_k;
  Obs.Metrics.count "optimizer.rows_inserted" ~by:rows;
  result
