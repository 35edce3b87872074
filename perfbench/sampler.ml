(* Timing of calls into the program's layers, from the benchmark's side of
   each call. Two records are kept:

   - named unit-cost samples ("thermal.solve_ms", ...), one per timed
     call, which become the per-layer metrics;
   - per-operation layer totals, which become the layer budget. Only leaf
     calls add to a layer total, so nested timings never double count.

   Calls made while re-enacting a prepare (a cold flow) are also summed
   apart, so a budget can name the dominant layer outside prepare. *)

let layers = [| "netgen"; "logicsim"; "place"; "power"; "thermal"; "core"; "sta" |]

let layer_index name =
  let rec find i =
    if i = Array.length layers then invalid_arg ("unknown layer " ^ name)
    else if layers.(i) = name then i
    else find (i + 1)
  in
  find 0

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

(* Metrics whose samples no longer change: exact counts are taken from
   one deterministic stretch of a run, not from however many operations
   fit in the time. *)
let frozen : (string, unit) Hashtbl.t = Hashtbl.create 8

let record name v =
  if not (Hashtbl.mem frozen name) then
    let prev = Option.value (Hashtbl.find_opt samples name) ~default:[] in
    Hashtbl.replace samples name (v :: prev)

let get name =
  match Hashtbl.find_opt samples name with
  | None -> [||]
  | Some l -> Array.of_list (List.rev l)

let has name = Hashtbl.mem samples name

let freeze names =
  List.iter (fun n -> if has n then Hashtbl.replace frozen n ()) names

(* An opaque call: one public function whose inner layers the benchmark
   cannot time from outside. Its thermal share is priced afterwards from
   the program's counters (see [Pricing]). *)
type opaque = {
  o_ms : float;
  o_grid : int * Thermal.Mesh.precond_choice option;
  (* the mesh size and preconditioner choice it solved with *)
  o_counts : (string * float) list;    (* counter deltas inside the call *)
}

type op = {
  mutable op_ms : float;
  layer_ms : float array;
  prep_ms : float array;
  mutable opaque : opaque list;
}

let current : op option ref = ref None
let in_prepare = ref false

let start_op () =
  current :=
    Some
      { op_ms = Float.nan; layer_ms = Array.make (Array.length layers) 0.0;
        prep_ms = Array.make (Array.length layers) 0.0; opaque = [] }

(* [ms] is the operation's wall time, taken by the caller. *)
let finish_op ~ms () =
  match !current with
  | None -> invalid_arg "Sampler.finish_op: no op started"
  | Some o ->
    current := None;
    o.op_ms <- ms;
    o

let add_layer layer ms =
  match !current with
  | None -> ()
  | Some o ->
    let i = layer_index layer in
    o.layer_ms.(i) <- o.layer_ms.(i) +. ms;
    if !in_prepare then o.prep_ms.(i) <- o.prep_ms.(i) +. ms

(* A leaf call: its time goes to [layer] and, when named, to [metric]. *)
let leaf ?metric layer f =
  let r, ms = Pstats.time_ms f in
  add_layer layer ms;
  Option.iter (fun m -> record m ms) metric;
  r

(* A composite call: named sample only; its leaves carry the layer time. *)
let composite metric f =
  let r, ms = Pstats.time_ms f in
  record metric ms;
  r

let preparing f =
  let saved = !in_prepare in
  in_prepare := true;
  Fun.protect ~finally:(fun () -> in_prepare := saved) f

let add_opaque o =
  match !current with None -> () | Some op -> op.opaque <- o :: op.opaque

(* Run a probe, keeping only samples of metrics that had none before:
   metrics the workload itself measured are not mixed with probe calls. *)
let only_missing f =
  let before = Hashtbl.copy samples in
  Fun.protect f ~finally:(fun () ->
      Hashtbl.iter (fun name l -> Hashtbl.replace samples name l) before)
