(** Electrothermal (leakage-temperature) feedback.

    The paper's introduction motivates the techniques with "the positive
    feedback between leakage power and temperature further exacerbates the
    thermal problem". This module closes that loop: subthreshold leakage is
    re-evaluated at each cell's local temperature
    ([2^(rise / leakage_doubling_k)] scaling), the power map is re-binned
    and the thermal network re-solved, until the peak rise converges.

    Because the feedback amplifies exactly the regions the techniques cool,
    the temperature reductions of ERI/HW are slightly *larger* under
    feedback than in the open-loop analysis — quantified by the
    [electrothermal] bench experiment. *)

type result = {
  thermal_map : Geo.Grid.t;          (** converged active-layer map *)
  metrics : Thermal.Metrics.t;
  iterations : int;                  (** thermal solves performed *)
  converged : bool;
  open_loop_peak_k : float;          (** first-iteration (no feedback) peak *)
  leakage_w : float;                 (** converged total leakage *)
  nominal_leakage_w : float;         (** leakage at ambient corner *)
}

val evaluate : Flow.t -> Place.Placement.t -> ?max_iter:int ->
  ?tol_k:float -> unit -> result
(** Fixed-point iteration, damping-free (the loop gain is far below 1 for
    any survivable operating point). Defaults: [max_iter] 12, [tol_k] 1e-3.
    Raises [Robust.Error.Error (Invariant_violation _)] (check
    ["electrothermal.runaway"]) if the iteration diverges — peak rise
    grows past 200 K, thermal runaway, which a sane package never
    reaches here. *)
