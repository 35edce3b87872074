(** Green's-function power blurring (Kemper et al., "Ultrafast
    Temperature Profile Calculation in IC Chips"), sharpened into an
    exact spectral transfer: for the linear steady-state RC network the
    active-layer temperature rise is a convolution of the power map with
    the network's point-source response, so every candidate power map
    costs a single O(n log n) FFT pass instead of an iterative solve.

    {!of_stencil} computes the kernel analytically. When the assembled
    stencil is laterally uniform (one coupling per layer and axis, one
    sink per layer, adiabatic side walls), the product DCT in x and y
    diagonalizes the operator and each mode (kx, ky) leaves a
    tridiagonal system in z whose inverse's power-layer entry is the
    transfer — one small elimination per mode, no solve. The same scan
    verifies the uniformity it relies on and reports the first
    violation.

    With adiabatic walls ([h_side_w_m2k = 0] — Neumann BC via
    half-sample reflection) the power-to-temperature map is a true cyclic
    convolution on the 2n-periodic even extension of the die, so the
    kernel is exact for the discrete operator to rounding. Non-zero
    side-wall conductance breaks translation invariance: {!of_stencil}
    refuses, and callers solve exactly instead.

    Evaluation uses a Hermitian half-spectrum pipeline on the 2nx x 2ny
    extension: rows are transformed two at a time as one complex FFT,
    column transforms run only for kx <= nx (the rest follow from
    conjugate symmetry), and inverse rows are recovered pairwise the
    same way — roughly halving the FFT count per candidate. Extension
    lengths are rarely powers of two; the {!Fft} Bluestein path handles
    them without padding (padding would break the exact cyclicity). A
    [t] is immutable once built and safe to share across pool workers;
    every evaluation allocates its own scratch. *)

type t

val of_stencil :
  Stencil.t -> power_layer:int -> extent:Geo.Rect.t -> (t, string) result
(** The analytic transfer of a laterally uniform stencil to and from
    layer [power_layer], over a die of [extent]. [Error] names the first
    violation of uniformity: a grid smaller than 2x2, a coupling that
    differs from its layer's (an armed [Perturb_matrix] fault), a
    diagonal that is not its couplings plus the layer's sink up to the
    rounding of the sums (non-zero side walls), or a non-positive
    diagonal. The kx = nx and ky = ny modes are zero: no even-extended
    field has content there. Traced as [thermal.blur.analytic]; counts
    [thermal.blur.kernels]. Raises [Invalid_argument] when
    [power_layer] is not a layer. *)

val nx : t -> int
val ny : t -> int
val extent : t -> Geo.Rect.t

val field : t -> power:Geo.Grid.t -> Geo.Grid.t
(** Temperature-rise field for [power] (same dims as the kernel's grid,
    checked). One extended FFT convolution, traced as the
    [thermal.blur.eval] span. *)

val peak : ?correction:Geo.Grid.t -> t -> power:Geo.Grid.t -> float
(** Maximum of {!field} without materializing the grid. With
    [correction] (same dims, checked), the maximum of
    [field + correction] instead: pass the exact-minus-blurred error
    field of a reference power map to screen with a control variate.
    The transfer is linear in the power map, so a corrected estimate
    errs only by the model error of the *difference* from the reference,
    and carries the reference solve's own error (its tolerance) like
    every other solve at that tolerance. *)
