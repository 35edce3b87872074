(* The closed loop every workload runs, and what it keeps of each
   iteration: one iteration is one operation (a flow run, an optimize +
   confirm) or, on serve-mix, one batch of jobs. Iterations cycle over a
   fixed, seed-derived input set, so a run's output digest and exact
   counters do not depend on how many iterations fit in the time. *)

type job = {
  latency_ms : float;
  failure : string option;   (* [None] when every output check passed *)
}

type iteration = {
  input : int;                       (* index into the workload's inputs *)
  jobs : job list;
  busy_s : float;                    (* timed wall time of the iteration *)
  outputs : string;                  (* exact outputs: peak bits, plans *)
  peaks : float list;                (* committed peak rises, K *)
  counts : (string * float) list;    (* exact counters, per operation *)
}

let check_failures checks =
  match List.filter_map (fun (ok, why) -> if ok then None else Some why) checks
  with
  | [] -> None
  | whys -> Some (String.concat "; " whys)

(* Run [f 0], [f 1], ... until [seconds] have passed and at least
   [min_iters] iterations are done. *)
let run_loop ~seconds ~min_iters f =
  let t0 = Pstats.now () in
  let rec go i acc =
    if Pstats.now () -. t0 >= seconds && i >= min_iters then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

type summary = {
  jobs : job array;
  attempted : int;
  failed : int;
  wall_s : float;
  distinct : iteration array;        (* first iteration of each input *)
  digest : string;
}

(* Every later iteration of an input must reproduce the first one's
   outputs and counters exactly; a difference fails its jobs. *)
let summarize ~inputs iterations =
  let first = Array.make inputs None in
  let checked =
    List.map
      (fun it ->
         match first.(it.input) with
         | None ->
           first.(it.input) <- Some it;
           it
         | Some f when f.outputs = it.outputs && f.counts = it.counts -> it
         | Some _ ->
           let fail j =
             { j with
               failure =
                 Some
                   (Option.fold ~none:"" ~some:(fun s -> s ^ "; ") j.failure
                    ^ "output or counters differ from an earlier run of the \
                       same input") }
           in
           { it with jobs = List.map fail it.jobs })
      iterations
  in
  let distinct =
    Array.mapi
      (fun i -> function
         | Some it -> it
         | None -> invalid_arg (Printf.sprintf "input %d never ran" i))
      first
  in
  let jobs = Array.of_list (List.concat_map (fun (it : iteration) -> it.jobs) checked) in
  let failed =
    Array.fold_left
      (fun n j -> if j.failure = None then n else n + 1)
      0 jobs
  in
  { jobs; attempted = Array.length jobs; failed;
    wall_s = List.fold_left (fun s (it : iteration) -> s +. it.busy_s) 0.0 checked;
    distinct;
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (Array.to_list (Array.map (fun it -> it.outputs) distinct)))) }

let first_failure s =
  Array.fold_left
    (fun acc j -> match acc with Some _ -> acc | None -> j.failure)
    None s.jobs

(* Mean over the distinct inputs: deterministic for a given seed. *)
let mean_count s name =
  Geo.Stats.mean
    (Array.map
       (fun it ->
          match List.assoc_opt name it.counts with
          | Some v -> v
          | None -> invalid_arg ("missing counter " ^ name))
       s.distinct)

let mean_peak s =
  Geo.Stats.mean
    (Array.map (fun it -> Geo.Stats.mean (Array.of_list it.peaks)) s.distinct)

let latencies s = Array.map (fun j -> j.latency_ms) s.jobs

(* The program's counters. Each operation starts with
   [Obs.Metrics.reset], so after it they read that operation's counts. *)
let counter name = Option.value (Obs.Metrics.counter_value name) ~default:0

let thermal_counts () =
  [ ("thermal.cg.solves", counter "thermal.cg.solves");
    ("thermal.adjoint.solves", counter "thermal.adjoint.solves");
    ("thermal.mesh.cache.hits", counter "thermal.mesh.cache.hits");
    ("thermal.mesh.cache.misses", counter "thermal.mesh.cache.misses") ]

let pool_utilization () =
  match Obs.Metrics.histogram "parallel.pool.utilization.samples" with
  | Some h when h.Obs.Metrics.count > 0 -> Some (Obs.Metrics.mean h)
  | _ -> None

let per_op ~ops counts =
  List.map (fun (k, v) -> (k, float_of_int v /. float_of_int ops)) counts
