(* What the driver needs from a workload. Set-up is repeatable so its
   time can be taken as a median; [op] and [op_traced] run input
   [i mod inputs] and must produce identical outputs. *)

type t = {
  name : string;
  inputs : int;
  min_iters : int;
  (* iterations a run completes at least: enough operations for a tail
     percentile with ten samples beyond it *)
  setup : unit -> unit;
  traced_setup : unit -> unit;     (* set-up with re-enacted calls *)
  op : int -> Harness.iteration;
  op_traced : int -> Harness.iteration * Sampler.op list;
  flow40 : unit -> Postplace.Flow.t;
  (* a prepared test-set-1 flow at the 40x40 default configuration, for
     the probes of layers the workload does not call *)
}

(* The stimuli of test sets 1 and 2, as [Experiment] and the serve jobs
   define them. *)
let ts1_workload () =
  Logicsim.Workload.scattered_hotspots ~hot_units:[ 0; 4; 6; 8 ]

let ts2_workload () = Logicsim.Workload.concentrated_hotspot ~hot_unit:2

let peak (ev : Postplace.Flow.evaluation) =
  ev.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k

let legal pl =
  match (Postplace.Checks.placement pl).Robust.Validate.run () with
  | Ok () -> (true, "")
  | Error msg -> (false, "illegal placement: " ^ msg)

let cooler ~base ~after =
  ( Float.is_finite after && after < base,
    Printf.sprintf "peak after %.17g K not finite and below base %.17g K" after
      base )

let plan_text l = String.concat "," (List.map string_of_int l)

let with_default_mesh (fl : Postplace.Flow.t) =
  { fl with
    Postplace.Flow.mesh_config = Thermal.Mesh.default_config;
    mesh_precond = None; screen = Postplace.Flow.Screen_auto;
    guide = Postplace.Flow.Guide_peak }
