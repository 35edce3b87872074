(** The layered 7-point operator of the thermal network.

    Every conductance matrix here couples a node of an [nx] x [ny] x [nz]
    grid only to itself and to its six axis neighbours, so it is stored as
    seven coefficient arrays in {!Mesh.node_index} order (x fastest, then
    y, then z): the diagonal and one array per neighbour direction. Entry
    [west.(i)] is the coefficient of row [i] on column [i - 1],
    [east.(i)] on [i + 1], [south.(i)] on [i - nx], [north.(i)] on
    [i + nx], [below.(i)] on [i - nx*ny] and [above.(i)] on [i + nx*ny].
    Coefficients of neighbours the grid boundary removes are never read.
    The arrays are independent, so an asymmetric matrix (the
    [Perturb_matrix] fault) is representable.

    Kernels add the terms of a row in ascending column order — below,
    south, west, centre, east, north, above — starting from [0.0], which
    is the order a compressed-sparse-row kernel over the same entries
    uses; results are bit-identical to that layout. *)

type t = private {
  nx : int;
  ny : int;
  nz : int;
  diag : float array;
  west : float array;
  east : float array;
  south : float array;
  north : float array;
  below : float array;
  above : float array;
}
(** The array contents are mutable (assembly fills them in place); the
    shape is fixed at {!create}. *)

val create : nx:int -> ny:int -> nz:int -> t
(** All-zero coefficients. Raises [Invalid_argument] unless every
    dimension is positive. *)

val dim : t -> int
(** [nx * ny * nz]. *)

val get : t -> int -> int -> float
(** [get a i j] is entry (i, j), 0.0 outside the 7-point pattern. *)

val add : t -> int -> int -> float -> unit
(** [add a i j v] adds [v] to entry (i, j). Raises [Invalid_argument]
    when (i, j) is outside the 7-point pattern. *)

val iter_row : t -> int -> f:(int -> float -> unit) -> unit
(** Visit the stored entries of one row — the diagonal and every
    neighbour the grid boundary keeps — as [(column, value)] pairs in
    ascending column order. *)

val mul : t -> float array -> float array -> unit
(** [mul a x y] computes [y <- A x]. *)

val mul_par : t -> float array -> float array -> unit
(** [mul_par a x y] computes [y <- A x] with whole x-lines split into
    fixed-size chunks executed on the {!Parallel.Pool} (large systems
    only). The chunk grid depends only on the grid shape, so the result
    is bit-identical to {!mul} for any pool size. *)

val ssor_apply : t -> omega:float -> float array -> float array -> unit
(** [ssor_apply a ~omega r z] computes [z <- M^-1 r] for the SSOR
    splitting [M = (D/w + L) ((2-w)/w D)^-1 (D/w + U)] of [a] with
    [w = omega]: a forward sweep and a backward sweep (with the diagonal
    scaling folded into the latter), each advancing two x-lines at a
    time in a skewed wavefront. The diagonal must be positive. [z] is
    used as scratch; its input value is ignored. *)
