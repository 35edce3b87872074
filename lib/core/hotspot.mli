(** Hotspot localization on a thermal map.

    Tiles whose temperature rise exceeds a fraction of the peak rise are
    clustered into 4-connected components; each cluster becomes a hotspot
    with its bounding rectangle (in µm) and member cells. Working
    post-placement lets the techniques "exploit both functional information
    (the actual switching activity) and physical information (cell position)
    so as to exactly localize the thermal hotspots" (paper §I). *)

type t = {
  rect : Geo.Rect.t;            (** bounding box of the cluster's tiles *)
  tiles : (int * int) list;     (** member (ix, iy) tiles *)
  peak_rise_k : float;          (** hottest tile of the cluster *)
  cells : Netlist.Types.cell_id list;  (** cells whose center lies inside *)
}

val detect : thermal:Geo.Grid.t -> placement:Place.Placement.t ->
  ?threshold_frac:float -> unit -> t list
(** Hotspots sorted hottest first. [threshold_frac] (default 0.85) is
    relative to the map's dynamic range — a tile is hot when its rise
    exceeds [min + frac * (max - min)]; it must lie in (0, 1]. *)

val tile_count : t -> int

val to_json : t -> Obs.Json.t
(** Bounding rect (µm), area, tile/cell counts and peak rise — the hotspot
    summary embedded in {!Obs.Report} run reports. *)

val span_rows : Place.Floorplan.t -> t -> int * int
(** Inclusive row range covered by the hotspot rectangle (clamped to the
    core). *)

val is_wide : Place.Floorplan.t -> t -> bool
(** The paper's ERI-suitability criterion: a hotspot is "wide" when its
    rectangle covers at least half of the core width (most of the inserted
    row area is then useful). *)
