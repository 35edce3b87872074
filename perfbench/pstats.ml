(* Statistics, clocks and process probes shared by the workloads. Every
   percentile goes through [Geo.Stats.percentile] (linear interpolation
   between order statistics). *)

let now () = Unix.gettimeofday ()

let ms_since t0 = (now () -. t0) *. 1e3

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let median a = Geo.Stats.percentile a 0.5

let min_tail_samples = 10

(* Samples strictly above the interpolation position of quantile [q]: the
   order statistics past index [floor (q (n - 1))]. *)
let samples_beyond ~n q =
  n - 1 - int_of_float (Float.floor (q *. float_of_int (n - 1)))

(* The highest whole percentile in [50, 99] that still has at least
   [min_tail_samples] samples beyond it. [None] below 20 samples, where
   even the median would leave fewer than ten. *)
let tail_percentile ~n =
  if n < 2 * min_tail_samples then None
  else
    let rec down p =
      if p < 50 then None
      else if samples_beyond ~n (float_of_int p /. 100.0) >= min_tail_samples
      then Some p
      else down (p - 1)
    in
    down 99

type tail = { pct : int; value : float; beyond : int; n : int }

let tail a =
  let n = Array.length a in
  Option.map
    (fun p ->
       let q = float_of_int p /. 100.0 in
       { pct = p; value = Geo.Stats.percentile a q;
         beyond = samples_beyond ~n q; n })
    (tail_percentile ~n)

(* Ratios, each with its base spelled out. *)

(* useful / attempts, where an attempt is a hit or a miss *)
let hit_ratio ~hits ~misses =
  if hits +. misses <= 0.0 then invalid_arg "hit_ratio: no attempts"
  else hits /. (hits +. misses)

(* operations that passed every check / operations attempted *)
let success_rate ~attempted ~failed =
  if attempted <= 0 then invalid_arg "success_rate: no attempts"
  else float_of_int (attempted - failed) /. float_of_int attempted

(* how much slower, in percent, the traced op median is than the
   untraced op median *)
let overhead_pct ~traced ~untraced = 100.0 *. ((traced /. untraced) -. 1.0)

(* operations completed per second of timed wall time *)
let throughput ~ops ~wall_s = float_of_int ops /. wall_s

(* a part of a whole, in percent *)
let share_pct ~part ~whole =
  if whole <= 0.0 then invalid_arg "share_pct: empty whole"
  else 100.0 *. part /. whole

(* simulation time per cell per simulated cycle *)
let ns_per_gate_eval ~ms ~cells ~cycles =
  ms *. 1e6 /. (float_of_int cells *. float_of_int cycles)

(* a batch's wall time beyond the same jobs run by direct calls, per job *)
let overhead_per_job ~batch_ms ~direct_ms ~jobs =
  (batch_ms -. direct_ms) /. jobs

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  scan ()

(* Words allocated by the calling domain while [f] runs, in millions. *)
let alloc_mw f =
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let r = f () in
  (r, (words () -. w0) /. 1e6)

(* Exact text form of a float, for output digests. *)
let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

(* Per-op seeds derived from the workload seed: splitmix64 finalizer over
   (seed, stream, index), truncated to a positive OCaml int. *)
let derive ~seed ~stream i =
  let open Int64 in
  let z = ref (add (mul (of_int seed) 0x9E3779B97F4A7C15L)
                 (add (mul (of_int stream) 0xBF58476D1CE4E5B9L) (of_int i)))
  in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  1 + (to_int (logand !z 0x3FFFFFFFL))
