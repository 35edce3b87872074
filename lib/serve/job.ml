(* One serve job: the JSONL request codec, the pre-prepare fingerprint,
   and the (deterministic) technique execution against a prepared flow.

   A request is one line of JSON. Parsing is strict where it matters —
   enums, ranges, the fault spec — because an invalid request must fail
   fast at admission, never after a prepared flow was paid for, and must
   never be retried. *)

module Flow = Postplace.Flow

type technique = Default | Eri | Hw | Optimize

let techniques =
  [ ("default", Default); ("eri", Eri); ("hw", Hw); ("optimize", Optimize) ]

let technique_name t = fst (List.find (fun (_, v) -> v = t) techniques)

type request = {
  id : string;
  test_set : string;
  technique : technique;
  seed : int;
  cycles : int;
  utilization : float;
  precond : Thermal.Mesh.precond_choice option;
  precond_name : string;
  screen : Flow.screen_choice;
  screen_name : string;
  guide : Flow.guide_choice;
  guide_name : string;
  overhead : float;
  rows : int option;
  deadline_ms : float option;
  max_retries : int option;
  faults : (Robust.Faults.fault * int) list;
  faults_spec : string;
}

let ( let* ) = Result.bind

let field_str json name ~default =
  match Obs.Json.member name json with
  | None -> Ok default
  | Some j -> (
    match Obs.Json.to_string_opt j with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S must be a string" name))

let field_int json name ~default =
  match Obs.Json.member name json with
  | None -> Ok default
  | Some j -> (
    match Obs.Json.to_int j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let field_float json name ~default =
  match Obs.Json.member name json with
  | None -> Ok default
  | Some j -> (
    match Obs.Json.to_float j with
    | Some v when Float.is_finite v -> Ok v
    | _ -> Error (Printf.sprintf "field %S must be a finite number" name))

(* A string field naming one entry of a choice table: the name and the
   value it selects. *)
let field_enum json ~id name table ~default =
  let* s = field_str json name ~default in
  match List.assoc_opt s table with
  | Some v -> Ok (s, v)
  | None -> Error (Printf.sprintf "%s: unknown %s %S" id name s)

let field_opt json name to_v ~kind =
  match Obs.Json.member name json with
  | None -> Ok None
  | Some j -> (
    match to_v j with
    | Some v -> Ok (Some v)
    | None -> Error (Printf.sprintf "field %S must be %s" name kind))

let request_of_json json =
  match json with
  | Obs.Json.Obj _ ->
    let* id =
      match Option.bind (Obs.Json.member "id" json) Obs.Json.to_string_opt with
      | Some s when String.trim s <> "" -> Ok s
      | Some _ -> Error "field \"id\" must be a non-empty string"
      | None -> Error "missing string field \"id\""
    in
    let fail fmt = Printf.ksprintf (fun m -> Error (id ^ ": " ^ m)) fmt in
    let enum name table ~default = field_enum json ~id name table ~default in
    let* test_set, _ =
      enum "test_set" Postplace.Experiment.test_sets ~default:"small"
    in
    let* _, technique = enum "technique" techniques ~default:"eri" in
    let* seed = field_int json "seed" ~default:42 in
    let* cycles = field_int json "cycles" ~default:1000 in
    let* () = if cycles >= 1 then Ok () else fail "cycles must be >= 1" in
    let* utilization = field_float json "utilization" ~default:0.85 in
    let* () =
      if utilization > 0.0 && utilization <= 1.0 then Ok ()
      else fail "utilization must be in (0, 1]"
    in
    let* precond_name, precond =
      enum "precond" Thermal.Mesh.preconds ~default:"auto"
    in
    let* screen_name, screen = enum "screen" Flow.screens ~default:"auto" in
    let* guide_name, guide = enum "guide" Flow.guides ~default:"peak" in
    let* overhead = field_float json "overhead" ~default:0.2 in
    let* () =
      if overhead >= 0.0 && overhead <= 4.0 then Ok ()
      else fail "overhead must be in [0, 4]"
    in
    let* rows = field_opt json "rows" Obs.Json.to_int ~kind:"an integer" in
    let* () =
      match rows with
      | Some r when r < 1 -> fail "rows must be >= 1"
      | _ -> Ok ()
    in
    let* deadline_ms =
      field_opt json "deadline_ms"
        (fun j ->
           match Obs.Json.to_float j with
           | Some v when Float.is_finite v -> Some v
           | _ -> None)
        ~kind:"a finite number"
    in
    let* () =
      match deadline_ms with
      | Some d when d <= 0.0 -> fail "deadline_ms must be > 0"
      | _ -> Ok ()
    in
    let* max_retries =
      field_opt json "max_retries" Obs.Json.to_int ~kind:"an integer"
    in
    let* () =
      match max_retries with
      | Some r when r < 0 -> fail "max_retries must be >= 0"
      | _ -> Ok ()
    in
    let* faults_spec = field_str json "faults" ~default:"" in
    let* faults =
      Result.map_error (fun m -> id ^ ": bad faults spec: " ^ m)
        (Robust.Faults.parse_spec faults_spec)
    in
    Ok
      { id; test_set; technique; seed; cycles; utilization; precond;
        precond_name; screen; screen_name; guide; guide_name; overhead;
        rows; deadline_ms; max_retries; faults; faults_spec }
  | _ -> Error "request is not a JSON object"

let request_of_line line =
  match Obs.Json.of_string line with
  | Error msg -> Error ("unparseable request: " ^ msg)
  | Ok json -> request_of_json json

let request_to_json r =
  let opt name f v = match v with Some v -> [ (name, f v) ] | None -> [] in
  Obs.Json.Obj
    ([ ("id", Obs.Json.String r.id);
       ("test_set", Obs.Json.String r.test_set);
       ("technique", Obs.Json.String (technique_name r.technique));
       ("seed", Obs.Json.Int r.seed);
       ("cycles", Obs.Json.Int r.cycles);
       ("utilization", Obs.Json.Float r.utilization);
       ("precond", Obs.Json.String r.precond_name);
       ("screen", Obs.Json.String r.screen_name);
       ("guide", Obs.Json.String r.guide_name);
       ("overhead", Obs.Json.Float r.overhead) ]
     @ opt "rows" (fun v -> Obs.Json.Int v) r.rows
     @ opt "deadline_ms" (fun v -> Obs.Json.Float v) r.deadline_ms
     @ opt "max_retries" (fun v -> Obs.Json.Int v) r.max_retries
     @ (if r.faults_spec = "" then []
        else [ ("faults", Obs.Json.String r.faults_spec) ]))

(* Echo of the request for the per-job ledger record's config object. *)
let config_json r =
  match request_to_json r with
  | Obs.Json.Obj fields -> List.remove_assoc "id" fields
  | _ -> assert false

(* The batching identity: everything [prepare_flow] consumes. Computable
   without preparing anything, which is the whole point — the server
   groups queued jobs on this string before paying for a flow. *)
let fingerprint r =
  Flow.config_fingerprint ~mesh_config:Thermal.Mesh.default_config
    ~precond:r.precond ~screen:r.screen ~guide:r.guide ~seed:r.seed
    ~utilization:r.utilization
    ~extra:[ ("set", r.test_set); ("cycles", string_of_int r.cycles) ]
    ()

let prepare_flow r =
  Postplace.Experiment.prepare_test_set ~seed:r.seed
    ~utilization:r.utilization ~sim_cycles:r.cycles ?precond:r.precond
    ~screen:r.screen ~guide:r.guide
    (List.assoc r.test_set Postplace.Experiment.test_sets)

type executed = {
  peak_rise_k : float;
  reduction_pct : float;
  area_overhead_pct : float;
  plan_hash : string option;
  result_json : Obs.Json.t;
}

let derived_rows r (flow : Flow.t) =
  match r.rows with
  | Some rows -> rows
  | None ->
    max 1
      (int_of_float
         (r.overhead
          *. float_of_int
               flow.Flow.base_placement.Place.Placement.fp
                 .Place.Floorplan.num_rows))

(* Execute the technique. Everything in [result_json] is a deterministic
   function of the request (no wall-clock, no queue state), so CI can
   compare fault-armed and fault-free runs of the same file field by
   field and expect bit identity for unaffected jobs. *)
let execute ~(flow : Flow.t) ~(base : Flow.evaluation) r =
  let eval pl = Flow.evaluate flow pl in
  let finish ?plan ?(extra = []) pl =
    let ev = eval pl in
    let peak = ev.Flow.metrics.Thermal.Metrics.peak_rise_k in
    let reduction =
      Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
        ~after:ev.Flow.metrics
    in
    let area =
      Postplace.Technique.area_overhead_pct ~base:base.Flow.placement pl
    in
    let plan_hash = Option.map Postplace.Technique.plan_hash plan in
    let result_json =
      Obs.Json.Obj
        ([ ("technique", Obs.Json.String (technique_name r.technique));
           ("base_peak_rise_k",
            Obs.Json.Float base.Flow.metrics.Thermal.Metrics.peak_rise_k);
           ("peak_rise_k", Obs.Json.Float peak);
           ("peak_reduction_pct", Obs.Json.Float reduction);
           ("area_overhead_pct", Obs.Json.Float area) ]
         @ (match plan_hash with
            | Some h -> [ ("plan_hash", Obs.Json.String h) ]
            | None -> [])
         @ extra)
    in
    { peak_rise_k = peak; reduction_pct = reduction;
      area_overhead_pct = area; plan_hash; result_json }
  in
  match r.technique with
  | Default ->
    finish
      (Flow.apply_default flow
         ~utilization:(r.utilization /. (1.0 +. r.overhead)))
  | Eri ->
    let rows = derived_rows r flow in
    let res = Flow.apply_eri flow ~base ~rows in
    finish ~plan:res.Postplace.Technique.inserted_after
      res.Postplace.Technique.eri_placement
  | Hw ->
    let d =
      Flow.apply_default flow
        ~utilization:(r.utilization /. (1.0 +. r.overhead))
    in
    let de = eval d in
    finish (Flow.apply_hw flow ~on:de ())
  | Optimize ->
    let rows = match r.rows with Some rows -> rows | None -> 2 in
    let res = Postplace.Optimizer.greedy_rows flow ~rows () in
    finish
      ~plan:res.Postplace.Optimizer.plan.Postplace.Technique.inserted_after
      ~extra:
        [ ("evaluations", Obs.Json.Int res.Postplace.Optimizer.evaluations);
          ("blur_evaluations",
           Obs.Json.Int res.Postplace.Optimizer.blur_evaluations);
          ("adjoint_evaluations",
           Obs.Json.Int res.Postplace.Optimizer.adjoint_evaluations) ]
      res.Postplace.Optimizer.plan.Postplace.Technique.eri_placement
