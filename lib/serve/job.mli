(** One serve job: JSONL request codec, batching fingerprint, execution.

    A request is one line of JSON:

    {v
    {"id":"job-1","test_set":"small","technique":"eri","seed":42,
     "cycles":200,"utilization":0.85,"precond":"mg","screen":"auto",
     "overhead":0.2,"rows":2,"deadline_ms":5000,"max_retries":2,
     "faults":"nan_power"}
    v}

    Only [id] is required; everything else has the CLI's defaults.
    Parsing is strict (unknown enum values, out-of-range numbers and
    malformed fault specs are admission errors) because an invalid
    request must be rejected before a flow is paid for, and is never
    retried. *)

type technique = Default | Eri | Hw | Optimize

val technique_name : technique -> string

type request = {
  id : string;
  test_set : string;             (** scattered | concentrated | small *)
  technique : technique;
  seed : int;
  cycles : int;
  utilization : float;
  precond : Thermal.Mesh.precond_choice option;
  precond_name : string;
  screen : Postplace.Flow.screen_choice;
  screen_name : string;
  guide : Postplace.Flow.guide_choice;
  (** optimizer candidate-ranking signal; ["peak"] (default) or
      ["gradient"] in the request JSON *)
  guide_name : string;
  overhead : float;              (** area budget fraction, [0, 4] *)
  rows : int option;             (** explicit row budget (eri/optimize) *)
  deadline_ms : float option;    (** whole-job wall-clock budget *)
  max_retries : int option;      (** overrides the server policy *)
  faults : (Robust.Faults.fault * int) list;
  (** armed before the job's first attempt, cleared after it settles —
      one fault-armed job degrades exactly one job *)
  faults_spec : string;          (** raw spec, echoed in records *)
}

val request_of_json : Obs.Json.t -> (request, string) result
val request_of_line : string -> (request, string) result
val request_to_json : request -> Obs.Json.t

val config_json : request -> (string * Obs.Json.t) list
(** Request echo (without [id]) for the per-job ledger record. *)

val fingerprint : request -> string
(** The batching identity — {!Postplace.Flow.config_fingerprint} over
    the request plus [set]/[cycles] extras. Computable without preparing
    a flow; equal fingerprints share one prepared flow and its cached
    base evaluation. *)

val prepare_flow : request -> Postplace.Flow.t
(** Prepare the flow for this request
    ({!Postplace.Experiment.prepare_test_set}). Expensive — the server
    caches the result per fingerprint. *)

type executed = {
  peak_rise_k : float;
  reduction_pct : float;
  area_overhead_pct : float;
  plan_hash : string option;   (** ERI/optimize committed-plan MD5 *)
  result_json : Obs.Json.t;
  (** deterministic result payload for the response line — a pure
      function of the request, never of timing or queue state *)
}

val execute :
  flow:Postplace.Flow.t -> base:Postplace.Flow.evaluation -> request ->
  executed
(** Run the request's technique against a prepared flow and its base
    evaluation. Raises [Robust.Error.Error] on structured failure (the
    server's retry/deadline machinery wraps this call). *)
