(* optimize-160: the gradient-guided optimizer at the 160x160x9
   production grid with multigrid CG (8 rows, chunk 4, stride
   num_rows/20), followed by a confirming [Flow.evaluate] of the
   committed placement on the same 160x160 MG mesh. Set-up prepares a
   few test-set-1 flows from derived seeds; operations rotate over them,
   each with an empty mesh cache, like a cold [thermoplace optimize]. *)

module F = Postplace.Flow
module O = Postplace.Optimizer
module H = Harness
module W = Workload

let inputs = 3
let rows = 8
let chunk = 4
let nx = 160
let confirm_rel_tol = 1e-6

let cfg160 = { Thermal.Mesh.default_config with Thermal.Mesh.nx; ny = nx }

let stride (flow : F.t) =
  max 1 (flow.F.base_placement.Place.Placement.fp.Place.Floorplan.num_rows / 20)

(* The production configuration. [Flow.prepare] only records these
   fields, so setting them on a prepared flow equals preparing with them. *)
let configure (fl : F.t) =
  { fl with F.mesh_config = cfg160; mesh_precond = Some Thermal.Mesh.Pc_mg;
            guide = F.Guide_gradient }

let make ~seed =
  let seeds = Array.init inputs (Pstats.derive ~seed ~stream:2) in
  let flows = ref [||] and base_peaks = Array.make inputs None in
  let setup_with prepare =
    flows := Array.map prepare seeds;
    Array.fill base_peaks 0 inputs None
  in
  (* what the output check compares against, evaluated outside the timed
     operation *)
  let base_peak input =
    match base_peaks.(input) with
    | Some p -> p
    | None ->
      let fl = !flows.(input) in
      let p = W.peak (F.evaluate fl fl.F.base_placement) in
      base_peaks.(input) <- Some p;
      p
  in
  let prepare seed =
    configure
      (F.prepare ~seed (Netgen.Benchmark.nine_unit ()) (W.ts1_workload ()))
  in
  let setup () = setup_with prepare in
  let traced_setup () =
    setup_with (fun seed ->
        let bench =
          Sampler.leaf ~metric:"netgen.build_ms" "netgen"
            Netgen.Benchmark.nine_unit
        in
        configure (Reenact.prepare ~seed bench (W.ts1_workload ())));
    (* the re-enactment must not drift from the real prepare *)
    match Reenact.prepare_drift (prepare seeds.(0)) !flows.(0) with
    | None -> ()
    | Some what ->
      failwith ("re-enacted Flow.prepare drifted from Flow.prepare: " ^ what)
  in
  let finish ~input ~ms (r : O.result) (ev : F.evaluation) =
    let counts =
      H.per_op ~ops:1
        (H.thermal_counts ()
         @ [ ("core.optimizer_exact_solves", r.O.evaluations);
             ("core.optimizer_adjoint_solves", r.O.adjoint_evaluations);
             ("core.optimizer_blur_evals", r.O.blur_evaluations) ])
    in
    let predicted = r.O.predicted_peak_k and confirmed = W.peak ev in
    let plan = r.O.plan.Postplace.Technique.inserted_after in
    let failure =
      H.check_failures
        [ W.legal ev.F.placement;
          W.cooler ~base:(base_peak input) ~after:confirmed;
          ( Float.abs (confirmed -. predicted)
            <= confirm_rel_tol *. Float.abs predicted,
            Printf.sprintf "confirm peak %.17g K differs from predicted %.17g K"
              confirmed predicted ) ]
    in
    { H.input; jobs = [ { H.latency_ms = ms; failure } ]; busy_s = ms /. 1e3;
      outputs =
        Printf.sprintf "%s %s %s %d/%d/%d" (Pstats.bits predicted)
          (Pstats.bits confirmed) (W.plan_text plan) r.O.evaluations
          r.O.adjoint_evaluations r.O.blur_evaluations;
      peaks = [ confirmed ]; counts }
  in
  let op i =
    let input = i mod inputs in
    let fl = !flows.(input) in
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    let (r, ev), ms =
      Pstats.time_ms @@ fun () ->
      let r =
        Sampler.composite "core.optimize_160_ms" @@ fun () ->
        O.greedy_rows fl ~rows ~chunk ~stride:(stride fl) ~coarse_nx:nx ()
      in
      (r, F.evaluate fl r.O.plan.Postplace.Technique.eri_placement)
    in
    Option.iter (Sampler.record "parallel.pool_utilization")
      (H.pool_utilization ());
    finish ~input ~ms r ev
  in
  let op_traced i =
    let input = i mod inputs in
    let fl = !flows.(input) in
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    Sampler.start_op ();
    let (r, ev), ms =
      Pstats.time_ms @@ fun () ->
      let r =
        Reenact.greedy_rows ~metric:"core.optimize_160_ms" fl ~rows ~chunk
          ~stride:(stride fl) ~coarse_nx:nx ()
      in
      (r, Reenact.evaluate_exn fl r.O.plan.Postplace.Technique.eri_placement)
    in
    let sop = Sampler.finish_op ~ms () in
    (finish ~input ~ms r ev, [ sop ])
  in
  { W.name = "optimize-160"; inputs; min_iters = 20; setup; traced_setup; op;
    op_traced;
    flow40 = (fun () -> W.with_default_mesh !flows.(0)) }
