(* Layer probes for the traced run: single timed calls that fill the
   per-layer metrics a workload's own operations do not reach (a
   flow-ts1 run never solves at 160x160, an optimize-160 run never
   serves). Each probe runs on a test-set-1 flow from the workload's seed
   and keeps only samples of metrics that had none. Also here: the unit
   costs that price the thermal work inside opaque optimizer calls. *)

module F = Postplace.Flow
module S = Sampler

let cfg nx = { Thermal.Mesh.default_config with Thermal.Mesh.nx; ny = nx }

let power_at (fl : F.t) nx =
  Power.Map.power_map fl.F.base_placement ~per_cell_w:fl.F.per_cell_w ~nx
    ~ny:nx

let missing names = List.exists (fun n -> not (S.has n)) names

let probe_40 (fl : F.t) =
  if missing [ "core.evaluate_ms"; "power.map_ms"; "thermal.build_ms";
               "thermal.solve_ms"; "thermal.cg_iterations"; "core.eri_ms";
               "core.hotspot_ms"; "sta.analyze_ms" ]
  then
    S.only_missing @@ fun () ->
    Thermal.Mesh.cache_clear ();
    let base =
      S.composite "core.evaluate_ms" @@ fun () ->
      F.evaluate fl fl.F.base_placement
    in
    Thermal.Mesh.cache_clear ();
    ignore (Reenact.evaluate_exn fl fl.F.base_placement);
    ignore
      (S.composite "core.eri_ms" @@ fun () ->
       F.apply_eri fl ~base ~rows:(Flow_ts1.eri_rows fl))

let probe_techniques (fl : F.t) =
  if missing [ "core.default_ms"; "core.hw_ms" ] then
    S.only_missing @@ fun () ->
    let d =
      S.composite "core.default_ms" @@ fun () ->
      F.apply_default fl ~utilization:(fl.F.base_utilization /. 1.2)
    in
    let de = F.evaluate fl d in
    ignore (S.composite "core.hw_ms" @@ fun () -> F.apply_hw fl ~on:de ())

let probe_160 (fl : F.t) =
  S.only_missing @@ fun () ->
  let fl = Optimize_160.configure fl in
  Thermal.Mesh.cache_clear ();
  Obs.Metrics.reset ();
  ignore (Reenact.evaluate_exn fl fl.F.base_placement);
  let problem = Thermal.Mesh.build fl.F.mesh_config ~power:(power_at fl 160) in
  let precond = Thermal.Mesh.precond_of_choice problem Thermal.Mesh.Pc_mg in
  let forward = Thermal.Mesh.solve ~precond problem in
  ignore
    (S.composite "thermal.adjoint_160_ms" @@ fun () ->
     Thermal.Adjoint.solve ~precond ~forward problem);
  (* the kernel rides on the cache entry the evaluate above created, so
     this characterization is cold *)
  ignore
    (S.composite "thermal.blur_characterize_160_ms" @@ fun () ->
     Thermal.Mesh.blur ~precond:Thermal.Mesh.Pc_mg problem);
  (* allocation on one domain, so pooled chunks cannot hide words *)
  let jobs = Parallel.Pool.jobs () in
  Parallel.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs jobs) @@ fun () ->
  Thermal.Mesh.cache_clear ();
  let (), mw =
    Pstats.alloc_mw @@ fun () ->
    let p = Thermal.Mesh.build fl.F.mesh_config ~power:(power_at fl 160) in
    let precond = Thermal.Mesh.precond_of_choice p Thermal.Mesh.Pc_mg in
    ignore (Thermal.Mesh.solve ~precond p)
  in
  S.record "thermal.alloc_mw_160" mw

(* The pool's share of a 160x160 evaluate (the 40x40 solves are too
   small for it) when it has one executor per core. Filled here when the
   workloads ran at a single executor, which records no utilization. *)
let probe_parallel (fl : F.t) =
  if missing [ "parallel.pool_utilization" ] then begin
    let fl = Optimize_160.configure fl in
    let jobs = Parallel.Pool.jobs () in
    Parallel.Pool.set_jobs (max 2 (Domain.recommended_domain_count ()));
    Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs jobs) @@ fun () ->
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    ignore (F.evaluate fl fl.F.base_placement);
    Option.iter (S.record "parallel.pool_utilization")
      (Harness.pool_utilization ())
  end

let probe_optimize (fl : F.t) =
  if missing [ "core.optimize_peak_ms" ] then
    S.only_missing (fun () ->
        ignore
          (S.composite "core.optimize_peak_ms" @@ fun () ->
           Postplace.Optimizer.greedy_rows
             { fl with F.screen = F.Screen_fft } ~rows:4 ()));
  if missing [ "core.optimize_160_ms"; "core.optimizer_exact_solves" ] then
    S.only_missing @@ fun () ->
    let fl = Optimize_160.configure fl in
    Thermal.Mesh.cache_clear ();
    let r =
      S.composite "core.optimize_160_ms" @@ fun () ->
      Postplace.Optimizer.greedy_rows fl ~rows:Optimize_160.rows
        ~chunk:Optimize_160.chunk ~stride:(Optimize_160.stride fl)
        ~coarse_nx:160 ()
    in
    S.record "core.optimizer_exact_solves"
      (float_of_int r.Postplace.Optimizer.evaluations);
    S.record "core.optimizer_adjoint_solves"
      (float_of_int r.Postplace.Optimizer.adjoint_evaluations);
    S.record "core.optimizer_blur_evals"
      (float_of_int r.Postplace.Optimizer.blur_evaluations)

(* A two-job, one-fingerprint batch through the server and by direct
   calls: the serve layer's unit costs outside serve-mix. *)
let probe_serve ~seed =
  if missing [ "serve.prepare_ms"; "serve.batches" ] then
    S.only_missing @@ fun () ->
    let s = Pstats.derive ~seed ~stream:4 0 in
    let lines =
      List.map
        (Serve_mix.request ~test_set:"scattered" ~seed:s)
        [ ("eri", [ ("overhead", Obs.Json.Float 0.2) ]);
          ("default", [ ("overhead", Obs.Json.Float 0.2) ]) ]
    in
    let reqs = List.map Serve_mix.parse lines in
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    ignore (Serve_mix.server_round lines);
    Thermal.Mesh.cache_clear ();
    ignore (Serve_mix.direct_round reqs)

(* --- pricing opaque optimizer calls ------------------------------------ *)

type unit_costs = {
  build_ms : float;           (* one cold assembly, with its MG hierarchy *)
  iter_ms : float;            (* one CG iteration *)
  kernel_ms : float;          (* one blur-kernel characterization *)
  kernel_iters : float;       (* CG iterations inside that characterization *)
  blur_eval_ms : float;       (* one blurred-peak evaluation *)
}

(* The optimizer ranks with SSOR(1.6) when the flow names no
   preconditioner. *)
let optimizer_precond problem = function
  | Some c -> Thermal.Mesh.precond_of_choice problem c
  | None -> Thermal.Cg.Ssor 1.6

let unit_costs (fl : F.t) (nx, choice) =
  let power = power_at fl nx in
  Thermal.Mesh.cache_clear ();
  let (problem, precond), build_ms =
    Pstats.time_ms @@ fun () ->
    let p = Thermal.Mesh.build (cfg nx) ~power in
    (p, optimizer_precond p choice)
  in
  let sol, solve_ms =
    Pstats.time_ms (fun () -> Thermal.Mesh.solve ~precond problem)
  in
  let iters0 = List.assoc "cg_iterations" (Reenact.pricing_counts ()) in
  let kernel, kernel_ms =
    Pstats.time_ms (fun () -> Thermal.Mesh.blur ?precond:choice problem)
  in
  let kernel_iters =
    List.assoc "cg_iterations" (Reenact.pricing_counts ()) -. iters0
  in
  let evals =
    Array.init 5 (fun _ ->
        snd (Pstats.time_ms (fun () -> Thermal.Blur.peak kernel ~power)))
  in
  { build_ms;
    iter_ms = solve_ms /. float_of_int (max 1 sol.Thermal.Mesh.cg_iterations);
    kernel_ms; kernel_iters; blur_eval_ms = Pstats.median evals }

(* Thermal milliseconds inside one opaque call, capped at its duration. *)
let price c (o : S.opaque) =
  let n k = List.assoc k o.S.o_counts in
  let kernels = n "blur_kernels" in
  let iters = Float.max 0.0 (n "cg_iterations" -. (kernels *. c.kernel_iters)) in
  Float.min o.S.o_ms
    ((iters *. c.iter_ms) +. (n "mesh_misses" *. c.build_ms)
     +. (kernels *. c.kernel_ms) +. (n "blur_evals" *. c.blur_eval_ms))
