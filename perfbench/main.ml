(* perfbench: end-to-end benchmark of the thermoplace flow, optimizer and
   batch server, with a per-layer budget from a separate traced run.

     perfbench --workload flow-ts1|optimize-160|serve-mix --seed N
               --seconds S --trace 0|1

   Prints a readable report, then as its last line one JSON object with
   the keys correct, attempted, failed and metrics. With --trace 0 the
   metrics are the end-to-end ones, measured without tracing; with
   --trace 1 they are the per-layer ones (see Spec). *)

open Perfbench_lib
module H = Harness
module W = Workload

let setup_reps = 3

let workloads =
  [ ("flow-ts1", Flow_ts1.make); ("optimize-160", Optimize_160.make);
    ("serve-mix", Serve_mix.make) ]

let result_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ("metrics",
          Obs.Json.Obj
            (List.map
               (fun (name, unit_, v) ->
                  (name,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float v);
                       ("unit", Obs.Json.String unit_) ]))
               metrics)) ])

(* Attach units from [spec]; every name in it must have a value. *)
let with_units spec values =
  List.map
    (fun (name, unit_, _) ->
       match List.assoc_opt name values with
       | Some v when Float.is_finite v -> (name, unit_, v)
       | Some v -> failwith (Printf.sprintf "metric %s is %g" name v)
       | None -> failwith ("no value for metric " ^ name))
    spec

let print_metrics metrics =
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-34s %14.6g %s\n" name v unit_)
    metrics

let print_summary (w : W.t) (s : H.summary) =
  Printf.printf "digest %s %s\n" w.W.name s.H.digest;
  Option.iter (Printf.printf "first failure: %s\n") (H.first_failure s)

let exact_line values =
  Printf.printf "exact %s\n"
    (Obs.Json.to_string
       (Obs.Json.Obj
          (List.filter_map
             (fun n ->
                Option.map (fun v -> (n, Obs.Json.Float v))
                  (List.assoc_opt n values))
             Spec.exact)))

let per_op_counts (s : H.summary) =
  let c = H.mean_count s in
  [ ("thermal.solves_per_op", c "thermal.cg.solves");
    ("thermal.adjoint_solves_per_op", c "thermal.adjoint.solves");
    ("thermal.mesh_cache_hit_ratio",
     Pstats.hit_ratio ~hits:(c "thermal.mesh.cache.hits")
       ~misses:(c "thermal.mesh.cache.misses")) ]

(* --- untraced run: end-to-end metrics --------------------------------- *)

let run_plain (w : W.t) ~seconds =
  let setups =
    Array.init setup_reps (fun _ -> snd (Pstats.time_ms w.W.setup) /. 1e3)
  in
  let s =
    H.summarize ~inputs:w.W.inputs
      (H.run_loop ~seconds ~min_iters:w.W.min_iters w.W.op)
  in
  let lat = H.latencies s in
  let tail =
    match Pstats.tail lat with
    | Some t -> t
    | None -> failwith "too few operations for a tail percentile"
  in
  let metrics =
    with_units Spec.end_to_end
      [ ("setup_s", Pstats.median setups);
        ("latency_p50_ms", Pstats.median lat);
        ("latency_tail_ms", tail.Pstats.value);
        ("throughput_ops_per_s",
         Pstats.throughput ~ops:s.H.attempted ~wall_s:s.H.wall_s);
        ("peak_rss_mb", Pstats.peak_rss_mb ());
        ("peak_rise_k", H.mean_peak s);
        ("success_rate",
         Pstats.success_rate ~attempted:s.H.attempted ~failed:s.H.failed) ]
  in
  Printf.printf
    "setup %s s (median of %d); latency_tail_ms is p%d of %d operations, %d \
     beyond it; error_rate %d/%d\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setups)))
    setup_reps tail.Pstats.pct tail.Pstats.n tail.Pstats.beyond s.H.failed
    s.H.attempted;
  print_metrics metrics;
  Printf.printf "latencies ms: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") lat)));
  print_summary w s;
  exact_line (per_op_counts s);
  (s.H.failed = 0, s.H.attempted, s.H.failed, metrics)

(* --- traced run: per-layer metrics and budget --------------------------- *)

let sample_metric name =
  let a = Sampler.get name in
  if Array.length a = 0 then failwith ("no samples for " ^ name)
  else if List.mem name Spec.exact then Geo.Stats.mean a
  else Pstats.median a

(* Shift the priced thermal share of opaque calls from core to thermal. *)
let price_ops flow ops =
  let costs = Hashtbl.create 4 in
  let cost grid =
    match Hashtbl.find_opt costs grid with
    | Some c -> c
    | None ->
      let c = Probes.unit_costs flow grid in
      Hashtbl.replace costs grid c;
      c
  in
  let thermal = Sampler.layer_index "thermal"
  and core = Sampler.layer_index "core" in
  List.fold_left
    (fun total (op : Sampler.op) ->
       List.fold_left
         (fun total (o : Sampler.opaque) ->
            let p = Probes.price (cost o.Sampler.o_grid) o in
            op.Sampler.layer_ms.(thermal) <- op.Sampler.layer_ms.(thermal) +. p;
            op.Sampler.layer_ms.(core) <- op.Sampler.layer_ms.(core) -. p;
            total +. p)
         total op.Sampler.opaque)
    0.0 ops

let budget (ops : Sampler.op list) ~priced_ms =
  let n = Array.length Sampler.layers in
  let sum f = List.fold_left (fun s op -> s +. f op) 0.0 ops in
  let total = sum (fun op -> op.Sampler.op_ms) in
  let layer i = sum (fun op -> op.Sampler.layer_ms.(i)) in
  let outside_prepare i =
    sum (fun op -> op.Sampler.layer_ms.(i) -. op.Sampler.prep_ms.(i))
  in
  let remainders =
    Array.of_list
      (List.map
         (fun op ->
            op.Sampler.op_ms -. Array.fold_left ( +. ) 0.0 op.Sampler.layer_ms)
         ops)
  in
  let ops_n = float_of_int (List.length ops) in
  let argmax f =
    let best = ref 0 in
    for i = 1 to n - 1 do if f i > f !best then best := i done;
    Sampler.layers.(!best)
  in
  Printf.printf "budget over %d traced operations (%.1f ms per op):\n"
    (List.length ops) (total /. ops_n);
  Array.iteri
    (fun i l ->
       Printf.printf "  %-9s %10.2f ms/op %6.1f%%   outside prepare %10.2f ms/op\n"
         l (layer i /. ops_n) (Pstats.share_pct ~part:(layer i) ~whole:total)
         (outside_prepare i /. ops_n))
    Sampler.layers;
  Printf.printf "  remainder %9.2f ms/op (median)\n" (Pstats.median remainders);
  Printf.printf "dominant layer: %s; outside prepare: %s\n" (argmax layer)
    (argmax outside_prepare);
  let thermal = layer (Sampler.layer_index "thermal") in
  [ ("budget.op_ms",
     Pstats.median (Array.of_list (List.map (fun op -> op.Sampler.op_ms) ops)));
    ("budget.thermal_priced_pct",
     if thermal > 0.0 then Pstats.share_pct ~part:priced_ms ~whole:thermal
     else 0.0);
    ("budget.remainder_ms", Pstats.median remainders) ]
  @ Array.to_list
      (Array.mapi
         (fun i l ->
            ("budget." ^ l ^ "_pct", Pstats.share_pct ~part:(layer i) ~whole:total))
         Sampler.layers)

let run_traced (w : W.t) ~seed ~seconds =
  w.W.traced_setup ();
  let half = seconds /. 2.0 in
  let plain_iters = H.run_loop ~seconds:half ~min_iters:w.W.inputs w.W.op in
  let plain = H.summarize ~inputs:w.W.inputs plain_iters in
  let traced_iters =
    H.run_loop ~seconds:half ~min_iters:w.W.inputs (fun i ->
        let r = w.W.op_traced i in
        if i = w.W.inputs - 1 then Sampler.freeze Spec.exact;
        r)
  in
  let traced = H.summarize ~inputs:w.W.inputs (List.map fst traced_iters) in
  let ops = List.concat_map snd traced_iters in
  (* iteration against iteration: on serve-mix a batch re-enacted call by
     call against the same batch run by direct calls *)
  let busy_ms iters =
    Array.of_list (List.map (fun (it : H.iteration) -> it.H.busy_s *. 1e3) iters)
  in
  let untraced_ms =
    if Sampler.has "serve.direct_round_ms" then Sampler.get "serve.direct_round_ms"
    else busy_ms plain_iters
  in
  let trace_overhead =
    Pstats.overhead_pct
      ~traced:(Pstats.median (busy_ms (List.map fst traced_iters)))
      ~untraced:(Pstats.median untraced_ms)
  in
  print_summary w plain;
  print_summary w traced;
  if plain.H.digest <> traced.H.digest then
    failwith
      (Printf.sprintf "traced outputs %s differ from untraced outputs %s"
         traced.H.digest plain.H.digest);
  let flow = w.W.flow40 () in
  Probes.probe_40 flow;
  Probes.probe_techniques flow;
  Probes.probe_160 flow;
  Probes.probe_parallel flow;
  Probes.probe_optimize flow;
  Probes.probe_serve ~seed;
  let priced_ms = price_ops flow ops in
  let counts = per_op_counts plain in
  let from_counts name =
    if List.mem_assoc name plain.H.distinct.(0).H.counts then
      Some (H.mean_count plain name)
    else None
  in
  let sampled =
    List.filter_map
      (fun (name, _, _, _) ->
         if Sampler.has name then
           Some
             (name,
              match from_counts name with
              | Some v -> v
              | None -> sample_metric name)
         else None)
      Spec.per_layer
  in
  let overhead_per_job =
    Pstats.overhead_per_job ~batch_ms:(sample_metric "serve.round_ms")
      ~direct_ms:(sample_metric "serve.direct_round_ms")
      ~jobs:(sample_metric "serve.round_jobs")
  in
  let values =
    sampled @ counts
    @ [ ("serve.overhead_ms_per_job", overhead_per_job);
        ("parallel.pool_size", float_of_int (Parallel.Pool.jobs ()));
        ("bench.trace_overhead_pct", trace_overhead) ]
    @ budget ops ~priced_ms
  in
  let metrics =
    with_units (List.map (fun (n, u, b, _) -> (n, u, b)) Spec.per_layer) values
  in
  print_metrics metrics;
  print_endline "what each per-layer metric should move:";
  List.iter (fun (n, _, _, m) -> Printf.printf "  %-34s %s\n" n m) Spec.per_layer;
  exact_line values;
  let failed = plain.H.failed + traced.H.failed in
  (failed = 0, plain.H.attempted + traced.H.attempted, failed, metrics)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Serve_mix.stamp_flag then begin
    Serve_mix.stamp_lines ();
    exit 0
  end;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  flow-ts1 | optimize-160 | serve-mix");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  measured time per run (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  assert (List.map fst workloads = Spec.workloads);
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seed >= 0, --seconds >= 1, --trace 0|1";
    exit 2
  end;
  (* The CLI's default --jobs: one core is left to the rest of the machine
     (a single executor on two cores), so a neighbour taking a core does
     not stall every parallel section and stop-the-world collection. *)
  Parallel.Pool.set_jobs (Parallel.Pool.default_jobs ());
  Obs.Trace.set_enabled false;
  let w = make ~seed:!seed in
  Printf.printf "perfbench %s seed %d seconds %d trace %d, pool %d domains\n%!"
    w.W.name !seed !seconds !trace (Parallel.Pool.jobs ());
  let seconds = float_of_int !seconds in
  let correct, attempted, failed, metrics =
    Parallel.Pool.with_pool @@ fun () ->
    try
      if !trace = 0 then run_plain w ~seconds
      else run_traced w ~seed:!seed ~seconds
    with Failure msg ->
      Printf.eprintf "perfbench: %s\n%!" msg;
      exit 1
  in
  print_endline (result_line ~correct ~attempted ~failed metrics)
