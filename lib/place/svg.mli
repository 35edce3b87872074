(** SVG rendering of placements.

    Produces a self-contained SVG of the die: rows, cells (colored by
    benchmark unit, fillers in grey), and optional overlays — a translucent
    heat map and hotspot outlines. This is the visual counterpart of the
    paper's Fig. 3/4 layout illustrations. *)

type overlay = {
  heat : Geo.Grid.t option;        (** translucent red shading by value *)
  outlines : Geo.Rect.t list;      (** dashed rectangles (e.g. hotspots) *)
}

val to_string : ?scale:float -> ?fillers:Filler.filler list ->
  ?overlay:overlay -> Placement.t -> string
(** [scale] is SVG pixels per µm (default 4). *)

val write_file : string -> ?scale:float -> ?fillers:Filler.filler list ->
  ?overlay:overlay -> Placement.t -> unit
