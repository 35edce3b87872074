(* Every metric the benchmark prints, by name and unit. BENCHMARK.json
   lists the same names; the self-test keeps the two in step. *)

let workloads = [ "flow-ts1"; "optimize-160"; "serve-mix" ]

let end_to_end =
  [ ("setup_s", "s", "lower");
    ("latency_p50_ms", "ms", "lower");
    ("latency_tail_ms", "ms", "lower");
    ("throughput_ops_per_s", "ops/s", "higher");
    ("peak_rss_mb", "MB", "lower");
    ("peak_rise_k", "K", "lower");
    ("success_rate", "fraction", "higher") ]

(* Counts that do not depend on the machine: two runs of the same code
   and seed must print identical values. *)
let exact =
  [ "logicsim.cycles"; "thermal.cg_iterations"; "thermal.cg_iterations_160";
    "thermal.solves_per_op"; "thermal.adjoint_solves_per_op";
    "thermal.mesh_cache_hit_ratio"; "core.optimizer_exact_solves";
    "core.optimizer_adjoint_solves"; "core.optimizer_blur_evals";
    "serve.batches"; "serve.flow_cache_hit_ratio" ]

let flow_lat = "latency_p50_ms, throughput_ops_per_s on flow-ts1"
let opt_lat = "latency_p50_ms on optimize-160"
let serve_tp = "throughput_ops_per_s, latency_p50_ms on serve-mix"

(* name, unit, better, and the end-to-end metric and workload it should
   move *)
let per_layer =
  [ ("netgen.build_ms", "ms", "lower", flow_lat ^ " (guard only)");
    ("logicsim.activity_ms", "ms", "lower",
     flow_lat ^ "; setup_s on optimize-160; serve-mix through cache misses \
      only; not optimize-160 latency");
    ("logicsim.ns_per_gate_eval", "ns", "lower", "as logicsim.activity_ms");
    ("logicsim.alloc_mw", "Mw", "lower", "as logicsim.activity_ms");
    ("logicsim.cycles", "count", "lower", "exact; as logicsim.activity_ms");
    ("place.global_ms", "ms", "lower", flow_lat);
    ("place.legalize_ms", "ms", "lower", flow_lat);
    ("place.alloc_mw", "Mw", "lower", flow_lat);
    ("power.model_ms", "ms", "lower", flow_lat);
    ("power.map_ms", "ms", "lower", serve_tp ^ "; " ^ flow_lat);
    ("power.map_160_ms", "ms", "lower", opt_lat);
    ("thermal.build_ms", "ms", "lower", serve_tp ^ " first; " ^ flow_lat);
    ("thermal.solve_ms", "ms", "lower", serve_tp ^ " first; " ^ flow_lat);
    ("thermal.cg_iterations", "count", "lower", "exact; as thermal.solve_ms");
    ("thermal.build_160_ms", "ms", "lower", opt_lat);
    ("thermal.solve_160_ms", "ms", "lower", opt_lat);
    ("thermal.cg_iterations_160", "count", "lower", "exact; " ^ opt_lat);
    ("thermal.adjoint_160_ms", "ms", "lower", opt_lat);
    ("thermal.blur_characterize_160_ms", "ms", "lower", opt_lat);
    ("thermal.alloc_mw_160", "Mw", "lower",
     opt_lat ^ "; peak_rss_mb on optimize-160");
    ("thermal.solves_per_op", "count", "lower",
     "exact; latency_p50_ms on every workload");
    ("thermal.adjoint_solves_per_op", "count", "lower", "exact; " ^ opt_lat);
    ("thermal.mesh_cache_hit_ratio", "fraction", "higher",
     "exact; latency_p50_ms on every workload");
    ("core.evaluate_ms", "ms", "lower", serve_tp ^ "; " ^ flow_lat);
    ("core.eri_ms", "ms", "lower", serve_tp ^ "; " ^ flow_lat);
    ("core.default_ms", "ms", "lower", serve_tp);
    ("core.hw_ms", "ms", "lower", serve_tp);
    ("core.hotspot_ms", "ms", "lower", serve_tp ^ "; " ^ flow_lat);
    ("core.optimize_peak_ms", "ms", "lower", serve_tp);
    ("core.optimize_160_ms", "ms", "lower", opt_lat);
    ("core.optimizer_exact_solves", "count", "lower", "exact; " ^ opt_lat);
    ("core.optimizer_adjoint_solves", "count", "lower", "exact; " ^ opt_lat);
    ("core.optimizer_blur_evals", "count", "lower", "exact; " ^ opt_lat);
    ("sta.analyze_ms", "ms", "lower", serve_tp ^ "; " ^ flow_lat);
    ("serve.prepare_ms", "ms", "lower", serve_tp);
    ("serve.flow_cache_hit_ratio", "fraction", "higher", "exact; " ^ serve_tp);
    ("serve.batches", "count", "lower", "exact; " ^ serve_tp);
    ("serve.overhead_ms_per_job", "ms", "lower", serve_tp);
    ("parallel.pool_utilization", "fraction", "higher",
     opt_lat ^ " when the pool has more than one executor (the benchmark \
      runs the CLI's default --jobs)");
    ("parallel.pool_size", "count", "higher", "record of the domain pool size");
    ("bench.trace_overhead_pct", "%", "lower",
     "none: traced against untraced iteration median (an op; a batch on \
      serve-mix)");
    ("budget.op_ms", "ms", "lower", "latency_p50_ms of the traced workload") ]
  @ List.map
      (fun l ->
         ("budget." ^ l ^ "_pct", "%", "lower",
          "share of the traced workload's op spent in " ^ l))
      (Array.to_list Sampler.layers)
  @ [ ("budget.thermal_priced_pct", "%", "lower",
       "share of thermal time priced from counters inside optimizer calls");
      ("budget.remainder_ms", "ms", "lower",
       "op median time no layer call accounts for") ]
