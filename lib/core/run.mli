(** One run of a command: its ledger record, its observability exports
    and its structured-error boundary.

    Process-global because an invocation of [thermoplace] (or one bench
    suite) is exactly one run at a time: {!run} resets the observability
    stores, the body fills the record in as the run unfolds (fingerprint
    once the flow exists, phases as they complete, peak and plan hash
    once known), and {!run} flushes one ledger record on every exit path
    — success, a non-zero status, or a structured failure. *)

type obs = {
  trace : bool;              (** print the span tree to stderr *)
  report : string option;    (** JSON run report path *)
  perfetto : string option;  (** Chrome trace-event JSON path *)
  prom : string option;      (** Prometheus text exposition path *)
  ledger : string option;
  (** ledger path override ({!Obs.Ledger.resolve_path}; ["none"]
      disables the record) *)
}

val no_obs : obs
(** No exports, the default ledger path. *)

val run :
  ?prog:string ->
  command:string ->
  obs:obs ->
  config:(string * Obs.Json.t) list ->
  (unit -> int * (string * Obs.Json.t) list) ->
  int
(** [run ~command ~obs ~config body] resets the span, metric, log and CG
    history stores (enabling span recording when [obs] asks for a trace,
    report or Perfetto file), then runs [body]. The body returns its exit
    status and the report sections of its results.

    On return the exporters [obs] selects run: the span tree to stderr,
    the report (with a trailing ["convergence"] section of CG residual
    histories), the Perfetto trace and the Prometheus file. An exporter
    that cannot write its file prints a one-line error and makes the
    status 1; otherwise the body's status stands. If the body raises
    [Robust.Error.Error e], the error is printed on one stderr line and
    the status is [Robust.Error.exit_code e]; nothing is exported.

    Either way one ledger record is appended — outcome ["ok"] for status
    0, ["error"] otherwise — and the status is returned. Stderr lines are
    prefixed by [prog] (default ["thermoplace"]). *)

val phase : string -> (unit -> 'a) -> 'a
(** Time [f] as the record's [<name>_ms] phase. *)

val set_fingerprint : string -> unit
val set_peak : float -> unit

val set_plan : int list -> unit
(** Record the committed plan's {!Technique.plan_hash}. *)

val ledger_path : unit -> string option
(** The current run's resolved ledger path ([None] when disabled). *)
