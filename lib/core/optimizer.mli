(** Greedy row-budget optimization — the paper's stated future work
    ("improve the efficiency of the approaches by transforming them into
    suitable optimization problems, e.g. the amount of empty rows ... to be
    inserted").

    The optimizer spends an empty-row budget one chunk at a time: every
    candidate insertion position is evaluated with a true (coarse-mesh)
    thermal solve of the resulting placement, and the position with the
    lowest peak temperature wins. This is slower than plain ERI but needs
    no hotspot heuristics and handles multiple competing warm regions. *)

type exact_reason =
  | Screen_exact  (** the flow's screen tier is [Screen_exact] *)
  | Faults_armed  (** [Screen_auto] with a fault armed *)
  | Non_uniform
  (** the mesh stencil has no analytic transfer
      ({!Thermal.Mesh.analytic_blur}): non-zero side walls, a perturbed
      matrix *)
  | Parity
  (** the spectral run's final peak disagreed with its exact confirm by
      more than 1e-6 relative, so the plan was recomputed on Exact *)

type realization = Spectral | Exact of exact_reason
(** The thermal operator a gradient-guided run priced candidates with. *)

val realization_name : realization -> string
(** ["spectral"] or ["exact"]. *)

type result = {
  plan : Technique.eri_result;      (** the chosen insertions applied *)
  predicted_peak_k : float;         (** coarse-mesh peak of the final plan *)
  evaluations : int;
  (** exact CG solves spent: seed, candidate/leader solves, confirms and
      the final re-score *)
  blur_evaluations : int;
  (** spectral applications: FFT blur screenings under the peak guide,
      transfer applications under the gradient guide's spectral
      realization; 0 when only exact solves ran *)
  adjoint_evaluations : int;
  (** CG adjoint solves spent; 0 under [Guide_peak] and under the
      spectral realization *)
  realization : realization option;
  (** the gradient guide's operator; [None] under [Guide_peak] *)
  spectral_parity_rel : float option;
  (** relative gap between the spectral and the confirmed peak of the
      spectral run's final plan ({!spectral_parity}); [None] when no
      spectral run finished its rounds. A run redone on [Exact Parity]
      keeps the gap that sent it there. *)
}

val spectral_parity : spectral:float -> exact:float -> float * bool
(** [(rel, ok)] for a spectral run's final plan: [rel] is
    [|spectral - exact| / |exact|], 0 when the two are equal (a plan
    with no power: both 0) and infinite when only [exact] is 0; [ok]
    holds when [rel <= 1e-6]. A NaN on either side is not [ok]. *)

val greedy_rows :
  Flow.t ->
  rows:int ->
  ?chunk:int ->
  ?stride:int ->
  ?coarse_nx:int ->
  ?leaders:int ->
  ?prepass_steps:int ->
  unit ->
  result
(** [greedy_rows flow ~rows ()] allocates [rows] empty rows on the flow's
    base placement. [chunk] rows are committed per greedy step (default 4),
    candidate positions are every [stride]-th row (default 4), and candidate
    evaluation uses a [coarse_nx] x [coarse_nx] thermal grid (default 20).
    Raises [Invalid_argument] on a non-positive budget or parameter.

    Candidate solves within a round run concurrently on the
    {!Parallel.Pool}, share the round's cached conductance matrix, and are
    warm-started from the incumbent plan's temperature field. Selection
    walks candidates in their fixed order with a strict-improvement
    tie-break, so the chosen plan is identical for any pool size
    (including sequential).

    When the flow's [screen] tier resolves to fft (see
    {!Flow.screen_choice}) and the mesh stencil has an analytic transfer
    ({!Thermal.Mesh.analytic_blur}; otherwise — side walls, a perturbed
    matrix — every round runs the exact tier), each round solves the
    first candidate exactly once (the anchor), ranks every candidate by
    the peak of its blurred power map corrected by the anchor's
    exact-minus-blurred error field (a control variate — see
    {!Thermal.Blur.peak}), then runs the exact warm-started solve only
    for the [leaders] best-ranked candidates (default 3; ties keep
    candidate order). Anchor and leader solves use
    exactly the inputs the exact tier would, so the committed plan is
    bit-identical to [Screen_exact] whenever the leader set contains the
    exact winner. Screening is skipped when a round has no more
    candidates than [leaders].

    When the flow's [guide] is {!Flow.Guide_gradient}, the
    per-candidate solves disappear: each round computes the sensitivity
    of a log-sum-exp peak at the incumbent plan, prices every candidate
    by the inner product of that map with its re-binned power map (no
    solve — the thermal system is linear, so the inner product is the
    candidate's first-order peak up to a round-constant), and allocates
    the chunk across candidates with a continuous projected-gradient
    pre-pass of [prepass_steps] iterations (default 8; 0 reduces to the
    peak guide's argmin move) rounded by largest remainder. [leaders] is
    ignored in this mode; selection is deterministic for any pool size.
    The sensitivity comes from one of two realizations of the thermal
    operator, reported in [realization] and counted in the
    [optimizer.realization{realization, reason}] metric as each starts
    (a spectral run that falls back counts both; a run that ends in a
    structured solver error still counts the one it was on):

    - [Spectral], when the screen tier resolves to fft and the mesh
      stencil is laterally uniform ({!Thermal.Mesh.analytic_blur}): the
      incumbent field and the sensitivity are two applications of the
      analytic power-layer transfer per round. No CG solve runs between
      rounds; the final plan gets one cold full-tolerance exact solve,
      so a run spends 1 exact solve and no adjoint. The confirmed peak
      is compared with the spectral peak of the same plan
      ([spectral_parity_rel], gauge [optimizer.spectral_parity_rel]);
      above 1e-6 relative a warning is logged and the run is redone on
      [Exact].
    - [Exact] otherwise: each round runs one warm-started adjoint solve
      at the incumbent ({!Thermal.Adjoint}) and confirms the committed
      chunk with one exact warm-started rank-tolerance solve, so a run
      spends [rounds + 2] exact solves (seed and final re-score) plus
      [rounds] adjoint solves. *)

val evaluate_plan : Flow.t -> after:int list -> nx:int -> float
(** Peak temperature rise (K) of the base placement with the given
    insertion plan applied, on an [nx] x [nx] mesh. Exposed for tests and
    for comparing optimizer output against heuristic ERI. *)

(**/**)

val gradient_rows_checked :
  check:(spectral:float -> exact:float -> float * bool) ->
  Flow.t ->
  rows:int ->
  chunk:int ->
  stride:int ->
  coarse_nx:int ->
  prepass_steps:int ->
  result
(** The gradient guide of {!greedy_rows} with {!spectral_parity}
    replaced by [check] — a test hook that reaches the fallback to
    [Exact Parity] without perturbing the operator. *)
