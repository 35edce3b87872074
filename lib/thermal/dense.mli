(** Dense Cholesky factorization — an independent direct solver.

    CG is the production path; this O(n³) solver exists to cross-validate
    it on small meshes (tests) and to solve the shifted systems of the
    transient analysis when they are small. *)

type t
(** A factored SPD matrix. *)

val of_stencil : Stencil.t -> t
(** Densify and factor. Raises [Failure] if the matrix is not positive
    definite. Meant for dimensions up to a few thousand. *)

val solve : t -> float array -> float array
(** [solve chol b] returns [x] with [A x = b]. *)

val dim : t -> int
