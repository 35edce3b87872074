(* flow-ts1: the default [thermoplace flow], run as a closed loop of cold
   operations. Each operation builds the nine-unit benchmark, prepares
   test set 1 (scattered hotspots, 64 + 1000 cycles) with a per-op seed,
   evaluates the base placement, applies ERI at 20% area overhead and
   evaluates the result, with an empty mesh cache. *)

module F = Postplace.Flow
module H = Harness
module W = Workload

let inputs = 4
let overhead = 0.2

let eri_rows (flow : F.t) =
  max 1
    (int_of_float
       (overhead
        *. float_of_int
             flow.F.base_placement.Place.Placement.fp.Place.Floorplan.num_rows))

let make ~seed =
  let seeds = Array.init inputs (Pstats.derive ~seed ~stream:1) in
  let last_flow = ref None in
  let finish ~input ~ms ~(flow : F.t) ~base ~(eri : Postplace.Technique.eri_result)
      ~after counts =
    last_flow := Some flow;
    let b = W.peak base and a = W.peak after in
    let failure =
      H.check_failures
        [ W.legal base.F.placement; W.legal eri.Postplace.Technique.eri_placement;
          W.cooler ~base:b ~after:a ]
    in
    { H.input; jobs = [ { H.latency_ms = ms; failure } ]; busy_s = ms /. 1e3;
      outputs =
        Printf.sprintf "%s %s %s" (Pstats.bits b) (Pstats.bits a)
          (W.plan_text eri.Postplace.Technique.inserted_after);
      peaks = [ a ]; counts }
  in
  let op i =
    let input = i mod inputs in
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    let (flow, base, eri, after), ms =
      Pstats.time_ms @@ fun () ->
      let bench = Netgen.Benchmark.nine_unit () in
      let flow = F.prepare ~seed:seeds.(input) bench (W.ts1_workload ()) in
      let base =
        Sampler.composite "core.evaluate_ms" @@ fun () ->
        F.evaluate flow flow.F.base_placement
      in
      let eri = F.apply_eri flow ~base ~rows:(eri_rows flow) in
      let after =
        Sampler.composite "core.evaluate_ms" @@ fun () ->
        F.evaluate flow eri.Postplace.Technique.eri_placement
      in
      (flow, base, eri, after)
    in
    Option.iter (Sampler.record "parallel.pool_utilization")
      (H.pool_utilization ());
    finish ~input ~ms ~flow ~base ~eri ~after
      (H.per_op ~ops:1 (H.thermal_counts ()))
  in
  let op_traced i =
    let input = i mod inputs in
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    Sampler.start_op ();
    let (flow, base, eri, after), ms =
      Pstats.time_ms @@ fun () ->
      let flow =
        Sampler.preparing @@ fun () ->
        let bench =
          Sampler.leaf ~metric:"netgen.build_ms" "netgen"
            Netgen.Benchmark.nine_unit
        in
        Reenact.prepare ~seed:seeds.(input) bench (W.ts1_workload ())
      in
      let base = Reenact.evaluate_exn flow flow.F.base_placement in
      let eri =
        Sampler.leaf ~metric:"core.eri_ms" "core" @@ fun () ->
        F.apply_eri flow ~base ~rows:(eri_rows flow)
      in
      let after =
        Reenact.evaluate_exn flow eri.Postplace.Technique.eri_placement
      in
      (flow, base, eri, after)
    in
    let sop = Sampler.finish_op ~ms () in
    ( finish ~input ~ms ~flow ~base ~eri ~after
        (H.per_op ~ops:1 (H.thermal_counts ())),
      [ sop ] )
  in
  (* warm-up: one untimed operation, so the first timed one does not pay
     for spawning the pool and growing the heap *)
  let setup () = ignore (op 0) in
  { W.name = "flow-ts1"; inputs; min_iters = 20; setup; traced_setup = setup;
    op; op_traced;
    flow40 =
      (fun () ->
         match !last_flow with
         | Some f -> f
         | None ->
           F.prepare ~seed:seeds.(0) (Netgen.Benchmark.nine_unit ())
             (W.ts1_workload ())) }
