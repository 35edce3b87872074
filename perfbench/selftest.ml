(* Self-tests of the benchmark's own arithmetic: the tail-percentile
   rule, the base of every ratio it reports, and that BENCHMARK.json
   names exactly the metrics the benchmark prints. *)

open Perfbench_lib

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* The tail is the highest whole percentile with at least ten samples
   strictly above it, counted on distinct values; none below 20. *)
let test_tail () =
  check "19 samples have no tail" (Pstats.tail_percentile ~n:19 = None);
  check "20 samples: p52" (Pstats.tail_percentile ~n:20 = Some 52);
  check "100 samples: p90" (Pstats.tail_percentile ~n:100 = Some 90);
  for n = 20 to 400 do
    let a = Array.init n float_of_int in
    let beyond q =
      let v = Geo.Stats.percentile a q in
      Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a
    in
    match Pstats.tail a with
    | None -> check (Printf.sprintf "tail exists at n=%d" n) false
    | Some t ->
      let q = float_of_int t.Pstats.pct /. 100.0 in
      check (Printf.sprintf "n=%d: p%d has >= 10 beyond" n t.Pstats.pct)
        (beyond q >= 10 && t.Pstats.beyond = beyond q && t.Pstats.n = n);
      if t.Pstats.pct < 99 then
        check (Printf.sprintf "n=%d: p%d has < 10 beyond" n (t.Pstats.pct + 1))
          (beyond (float_of_int (t.Pstats.pct + 1) /. 100.0) < 10);
      check (Printf.sprintf "n=%d: value is the interpolated percentile" n)
        (close t.Pstats.value (q *. float_of_int (n - 1)))
  done

let test_ratios () =
  (* hits over attempts, an attempt being a hit or a miss *)
  check "hit ratio base" (close (Pstats.hit_ratio ~hits:14.0 ~misses:2.0) 0.875);
  check "hit ratio all misses" (close (Pstats.hit_ratio ~hits:0.0 ~misses:4.0) 0.0);
  check "hit ratio without attempts"
    (raises (fun () -> Pstats.hit_ratio ~hits:0.0 ~misses:0.0));
  (* passed operations over attempted operations *)
  check "success rate base"
    (close (Pstats.success_rate ~attempted:16 ~failed:2) 0.875);
  check "success rate without attempts"
    (raises (fun () -> Pstats.success_rate ~attempted:0 ~failed:0));
  (* traced median relative to the untraced median *)
  check "trace overhead base"
    (close (Pstats.overhead_pct ~traced:110.0 ~untraced:100.0) 10.0);
  (* operations over timed wall seconds *)
  check "throughput base" (close (Pstats.throughput ~ops:10 ~wall_s:4.0) 2.5);
  (* a layer's time over the operation's time *)
  check "share base" (close (Pstats.share_pct ~part:30.0 ~whole:120.0) 25.0);
  check "share of nothing" (raises (fun () -> Pstats.share_pct ~part:1.0 ~whole:0.0));
  (* simulation time over cells times simulated cycles *)
  check "ns per gate evaluation base"
    (close (Pstats.ns_per_gate_eval ~ms:2.0 ~cells:1000 ~cycles:100) 20.0);
  (* batch wall time minus direct-call time, over the batch's jobs *)
  check "serve overhead base"
    (close (Pstats.overhead_per_job ~batch_ms:1100.0 ~direct_ms:1000.0 ~jobs:16.0)
       6.25);
  (* a counter over the operations it was read around *)
  check "per-op base" (Harness.per_op ~ops:16 [ ("solves", 54) ] = [ ("solves", 3.375) ]);
  check "median" (close (Pstats.median [| 3.0; 1.0; 2.0; 10.0 |]) 2.5)

let test_benchmark_json () =
  let json =
    Obs.Json.of_string_exn
      (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)
  in
  let list key =
    Option.value ~default:[]
      (Option.bind (Obs.Json.member key json) Obs.Json.to_list)
  in
  let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
  let entries key fields =
    List.map (fun j -> List.map (fun f -> str f j) fields) (list key)
  in
  let some = List.map (fun x -> Some x) in
  check "end_to_end metrics match"
    (entries "end_to_end" [ "name"; "unit"; "better" ]
     = List.map (fun (n, u, b) -> some [ n; u; b ]) Spec.end_to_end);
  check "per_layer metrics match"
    (entries "per_layer" [ "name"; "unit"; "better" ]
     = List.map (fun (n, u, b, _) -> some [ n; u; b ]) Spec.per_layer);
  check "workloads match"
    (entries "workloads" [ "name" ] = List.map (fun n -> [ Some n ]) Spec.workloads)

let () =
  test_tail ();
  test_ratios ();
  test_benchmark_json ();
  if !failures > 0 then exit 1;
  print_endline "perfbench self-test: ok"
