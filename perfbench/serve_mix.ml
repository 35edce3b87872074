(* serve-mix: an offline batch for the batch server. All jobs are
   submitted at t=0 through a pipe to [Serve.Server.run], which serves
   them to EOF; a job's latency runs from submission to its response
   line. The jobs spread over two fingerprints (test set 1 and test set
   2, seeds derived from the workload seed); each gets an interleaved
   mix of ERI, Default, HW and peak-guide optimize jobs, with fft
   screening so that every job of a test set shares one prepared flow. *)

module F = Postplace.Flow
module J = Serve.Job
module H = Harness

let specs =
  [ ("eri", [ ("overhead", Obs.Json.Float 0.1) ]);
    ("eri", [ ("overhead", Obs.Json.Float 0.2) ]);
    ("eri", [ ("overhead", Obs.Json.Float 0.3) ]);
    ("default", [ ("overhead", Obs.Json.Float 0.1) ]);
    ("default", [ ("overhead", Obs.Json.Float 0.2) ]);
    ("hw", [ ("overhead", Obs.Json.Float 0.2) ]);
    ("optimize", [ ("rows", Obs.Json.Int 4); ("guide", Obs.Json.String "peak") ]);
    ("optimize", [ ("rows", Obs.Json.Int 8); ("guide", Obs.Json.String "peak") ]) ]

let request ~test_set ~seed (technique, extra) =
  let fields =
    [ ("test_set", Obs.Json.String test_set);
      ("technique", Obs.Json.String technique); ("seed", Obs.Json.Int seed);
      ("screen", Obs.Json.String "fft") ]
    @ extra
  in
  let id =
    String.concat "-"
      (test_set :: string_of_int seed :: technique
       :: List.map (fun (_, v) -> Obs.Json.to_string v) extra)
  in
  Obs.Json.to_string (Obs.Json.Obj (("id", Obs.Json.String id) :: fields))

(* Jobs of the two fingerprints, interleaved. *)
let requests ~seed =
  let sets =
    [ ("scattered", Pstats.derive ~seed ~stream:3 0);
      ("concentrated", Pstats.derive ~seed ~stream:3 1) ]
  in
  List.concat_map
    (fun spec ->
       List.map (fun (test_set, seed) -> request ~test_set ~seed spec) sets)
    specs

let parse line =
  match J.request_of_line line with
  | Ok r -> r
  | Error msg -> invalid_arg ("bad benchmark request: " ^ msg)

let server_config =
  { Serve.Server.default_config with
    Serve.Server.ledger = None; handle_sigterm = false;
    queue_capacity = 256 }

(* One output line per job, in request order: id, exact peaks, plan. *)
let output_line ~id ~peak ~base ~plan_hash =
  Printf.sprintf "%s %s %s %s" id (Pstats.bits peak) (Pstats.bits base)
    (Option.value plan_hash ~default:"-")

let job_checks ~peak ~base =
  [ Workload.cooler ~base ~after:peak ]

(* Call [f] on each line read from [fd], as soon as it is complete,
   until EOF. *)
let iter_lines fd f =
  let buf = Bytes.create 65536 and pending = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      for i = 0 to n - 1 do
        let c = Bytes.get buf i in
        if c = '\n' then begin
          f (Buffer.contents pending);
          Buffer.clear pending
        end
        else Buffer.add_char pending c
      done;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let stamp_flag = "--stamp-lines"

(* The stamping child process: copy stdin lines to stdout, each prefixed
   with its arrival time. *)
let stamp_lines () =
  iter_lines Unix.stdin (fun line ->
      Printf.printf "%.6f %s\n%!" (Pstats.now ()) line)

type server_round = {
  summary : Serve.Server.summary;
  responses : (string * (Obs.Json.t * float)) list;  (* id -> (json, ms) *)
  round_ms : float;
}

let server_round lines =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let stamped_r, stamped_w = Unix.pipe ~cloexec:true () in
  (* A child process stamps the response lines as they arrive. A reader
     domain would join every stop-the-world collection of the server's
     domains, which slowed the batch down by ~10%. The child's output is
     read after the batch, so it must fit in a pipe buffer: a few
     hundred bytes per job. *)
  let stamper =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; stamp_flag |]
      out_r stamped_w Unix.stderr
  in
  Unix.close out_r;
  Unix.close stamped_w;
  let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (* the whole batch fits in the pipe buffer: submitted before serving *)
  let written = Unix.write_substring in_w text 0 (String.length text) in
  assert (written = String.length text);
  Unix.close in_w;
  let oc = Unix.out_channel_of_descr out_w in
  let t0 = Pstats.now () in
  let summary =
    Fun.protect
      ~finally:(fun () -> close_out oc; Unix.close in_r)
      (fun () -> Serve.Server.run ~config:server_config ~input:in_r ~output:oc ())
  in
  let round_ms = Pstats.ms_since t0 in
  Sampler.record "serve.round_ms" round_ms;
  Sampler.record "serve.round_jobs" (float_of_int (List.length lines));
  Sampler.record "serve.batches" (float_of_int summary.Serve.Server.batches);
  Sampler.record "serve.flow_cache_hit_ratio"
    (Pstats.hit_ratio
       ~hits:(float_of_int (Harness.counter "serve.flow_cache.hits"))
       ~misses:(float_of_int (Harness.counter "serve.flow_cache.misses")));
  let stamped = ref [] in
  iter_lines stamped_r (fun l -> stamped := l :: !stamped);
  Unix.close stamped_r;
  (match Unix.waitpid [] stamper with
   | _, Unix.WEXITED 0 -> ()
   | _ -> failwith "the response-stamping process failed");
  let responses =
    List.rev_map
      (fun stamped_line ->
         let sp = String.index stamped_line ' ' in
         let t = float_of_string (String.sub stamped_line 0 sp) in
         let line =
           String.sub stamped_line (sp + 1) (String.length stamped_line - sp - 1)
         in
         let json = Obs.Json.of_string_exn line in
         let id =
           Option.get (Option.bind (Obs.Json.member "id" json) Obs.Json.to_string_opt)
         in
         (id, (json, (t -. t0) *. 1e3)))
      !stamped
  in
  { summary; responses; round_ms }

let member_path path json =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some json) path

(* Jobs of a server round in request order, with their checks. *)
let server_jobs reqs round =
  List.map
    (fun (r : J.request) ->
       match List.assoc_opt r.J.id round.responses with
       | None ->
         ({ H.latency_ms = round.round_ms; failure = Some "no response" }, "", None)
       | Some (json, ms) ->
         let num k =
           Option.value ~default:Float.nan
             (Option.bind (member_path [ "result"; k ] json) Obs.Json.to_float)
         in
         let outcome =
           Option.bind (Obs.Json.member "outcome" json) Obs.Json.to_string_opt
         in
         let peak = num "peak_rise_k" and base = num "base_peak_rise_k" in
         let plan_hash =
           Option.bind (member_path [ "result"; "plan_hash" ] json)
             Obs.Json.to_string_opt
         in
         let failure =
           H.check_failures
             (( outcome = Some "ok",
                "response outcome "
                ^ Option.value outcome ~default:"missing" )
              :: job_checks ~peak ~base)
         in
         ( { H.latency_ms = ms; failure },
           output_line ~id:r.J.id ~peak ~base ~plan_hash,
           Some peak ))
    reqs

(* Requests grouped by fingerprint in the order the server pops them:
   the head job's fingerprint first, then the next remaining one. *)
let batches (reqs : J.request list) =
  let rec go = function
    | [] -> []
    | r :: _ as rest ->
      let fp = J.fingerprint r in
      let mine, others = List.partition (fun q -> J.fingerprint q = fp) rest in
      mine :: go others
  in
  go reqs

(* The same requests executed by direct calls, without the server. *)
let direct_round reqs =
  let outs = Hashtbl.create 16 in
  let (), total_ms =
    Pstats.time_ms @@ fun () ->
    List.iter
      (fun batch ->
         let flow_base = ref None in
         List.iter
           (fun (r : J.request) ->
              if !flow_base = None then
                flow_base :=
                  Some
                    (Sampler.composite "serve.prepare_ms" @@ fun () ->
                     let flow = J.prepare_flow r in
                     (flow, F.evaluate flow flow.F.base_placement));
              let flow, base = Option.get !flow_base in
              let e = J.execute ~flow ~base r in
              Hashtbl.replace outs r.J.id
                (output_line ~id:r.J.id ~peak:e.J.peak_rise_k
                   ~base:(Workload.peak base) ~plan_hash:e.J.plan_hash))
           batch)
      (batches reqs)
  in
  Sampler.record "serve.direct_round_ms" total_ms;
  List.map (fun (r : J.request) -> Hashtbl.find outs r.J.id) reqs

(* The same requests re-enacted call by call, one budget op per job. *)
let reenacted_round reqs =
  let outs = Hashtbl.create 16 in
  List.iter
    (fun batch ->
       let flow_base = ref None in
       List.iter
         (fun (r : J.request) ->
            Sampler.start_op ();
            let (line, peak, base), ms =
              Pstats.time_ms @@ fun () ->
              if !flow_base = None then flow_base := Some (Reenact.prepare_job r);
              let flow, base = Option.get !flow_base in
              let o = Reenact.execute ~flow ~base r in
              ( output_line ~id:r.J.id ~peak:o.Reenact.peak_rise_k
                  ~base:o.Reenact.base_peak_rise_k ~plan_hash:o.Reenact.plan_hash,
                o.Reenact.peak_rise_k, o.Reenact.base_peak_rise_k )
            in
            Hashtbl.replace outs r.J.id (line, peak, base, Sampler.finish_op ~ms ()))
         batch)
    (batches reqs);
  List.map (fun (r : J.request) -> Hashtbl.find outs r.J.id) reqs

let make ~seed =
  let lines = requests ~seed in
  let reqs = List.map parse lines in
  let n = List.length reqs in
  let op _ =
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    let round = server_round lines in
    Option.iter (Sampler.record "parallel.pool_utilization")
      (H.pool_utilization ());
    let jobs = server_jobs reqs round in
    let counts =
      H.per_op ~ops:n (H.thermal_counts ())
      @ [ ("serve.batches", float_of_int round.summary.Serve.Server.batches);
          ("serve.flow_cache.hits", float_of_int (H.counter "serve.flow_cache.hits"));
          ("serve.flow_cache.misses",
           float_of_int (H.counter "serve.flow_cache.misses")) ]
    in
    { H.input = 0; jobs = List.map (fun (j, _, _) -> j) jobs;
      busy_s = round.round_ms /. 1e3;
      outputs = String.concat "\n" (List.map (fun (_, o, _) -> o) jobs);
      peaks = List.filter_map (fun (_, _, p) -> p) jobs; counts }
  in
  let op_traced _ =
    Thermal.Mesh.cache_clear ();
    let direct = direct_round reqs in
    Thermal.Mesh.cache_clear ();
    Obs.Metrics.reset ();
    let traced = reenacted_round reqs in
    let jobs =
      List.map2
        (fun d (line, peak, base, sop) ->
           let failure =
             H.check_failures
               (( d = line,
                  "re-enacted job output differs from Job.execute: " ^ line )
                :: job_checks ~peak ~base)
           in
           ({ H.latency_ms = sop.Sampler.op_ms; failure }, sop))
        direct traced
    in
    ( { H.input = 0; jobs = List.map fst jobs;
        busy_s =
          List.fold_left (fun s (j, _) -> s +. j.H.latency_ms) 0.0 jobs /. 1e3;
        outputs = String.concat "\n" (List.map (fun (l, _, _, _) -> l) traced);
        peaks = List.map (fun (_, p, _, _) -> p) traced;
        counts = H.per_op ~ops:n (H.thermal_counts ()) },
      List.map snd jobs )
  in
  (* warm-up: the benchmark's prepares for both fingerprints, untimed by
     the loop, so the first round does not pay for growing the heap *)
  let setup () =
    List.iter
      (fun batch ->
         let flow = J.prepare_flow (List.hd batch) in
         ignore (F.evaluate flow flow.F.base_placement))
      (batches reqs)
  in
  { Workload.name = "serve-mix"; inputs = 1; min_iters = 2; setup;
    traced_setup = setup; op; op_traced;
    flow40 =
      (fun () ->
         Workload.with_default_mesh
           (J.prepare_flow (List.hd reqs))) }
