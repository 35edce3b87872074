(** A legal row-based placement: every cell sits in a row at a site index.

    This is the object the paper's techniques transform. It is immutable;
    transforms build new arrays. *)

type loc = {
  row : int;   (** row index, 0 at the bottom *)
  site : int;  (** leftmost occupied site *)
}

type t = {
  nl : Netlist.Types.t;
  fp : Floorplan.t;
  locs : loc array;  (** indexed by cell id *)
}

val make : Netlist.Types.t -> Floorplan.t -> loc array -> t
(** No validation beyond length check; use {!validate} in tests. *)

val width_sites : t -> Netlist.Types.cell_id -> int
val cell_rect : t -> Netlist.Types.cell_id -> Geo.Rect.t
val cell_center : t -> Netlist.Types.cell_id -> float * float

val net_bbox : t -> Netlist.Types.net_id -> Geo.Rect.t option
(** Bounding box of the centers of all cells on a net (driver and sinks);
    [None] when fewer than two distinct cells touch the net. *)

val net_hpwl : t -> Netlist.Types.net_id -> float
(** Half-perimeter wire length of one net, 0 for single-cell nets. *)

val hpwl : t -> float
(** Total half-perimeter wire length, µm. *)

val utilization : t -> float

type violation =
  | Out_of_bounds of Netlist.Types.cell_id
  | Overlap of Netlist.Types.cell_id * Netlist.Types.cell_id

val pp_violation : Format.formatter -> violation -> unit

val validate : t -> violation list
(** Empty list iff the placement is legal. *)

val row_members : t -> (Netlist.Types.cell_id list) array
(** Per row: member cells sorted by site. *)

val pp_summary : Format.formatter -> t -> unit
