type t = {
  rect : Geo.Rect.t;
  tiles : (int * int) list;
  peak_rise_k : float;
  cells : Netlist.Types.cell_id list;
}

(* BFS flood fill over the boolean "hot" mask, 4-connectivity. *)
let clusters_of_mask ~nx ~ny hot =
  let seen = Array.make (nx * ny) false in
  let idx ix iy = (iy * nx) + ix in
  let result = ref [] in
  for iy0 = 0 to ny - 1 do
    for ix0 = 0 to nx - 1 do
      if hot.(idx ix0 iy0) && not seen.(idx ix0 iy0) then begin
        let queue = Queue.create () in
        Queue.add (ix0, iy0) queue;
        seen.(idx ix0 iy0) <- true;
        let members = ref [] in
        while not (Queue.is_empty queue) do
          let ix, iy = Queue.pop queue in
          members := (ix, iy) :: !members;
          let try_push ix iy =
            if ix >= 0 && ix < nx && iy >= 0 && iy < ny
               && hot.(idx ix iy) && not seen.(idx ix iy)
            then begin
              seen.(idx ix iy) <- true;
              Queue.add (ix, iy) queue
            end
          in
          try_push (ix - 1) iy;
          try_push (ix + 1) iy;
          try_push ix (iy - 1);
          try_push ix (iy + 1)
        done;
        result := !members :: !result
      end
    done
  done;
  !result

let detect ~thermal ~placement ?(threshold_frac = 0.85) () =
  if threshold_frac <= 0.0 || threshold_frac > 1.0 then
    invalid_arg "Hotspot.detect: threshold_frac out of (0,1]";
  let nx = Geo.Grid.nx thermal and ny = Geo.Grid.ny thermal in
  let peak = Geo.Grid.max_value thermal in
  let low = Geo.Grid.min_value thermal in
  if peak <= 0.0 || peak -. low <= 0.0 then []
  else begin
    (* Threshold on the map's dynamic range, not its absolute peak: on a
       package-dominated die the profile is a bump over a plateau, and the
       bump is what the techniques target. *)
    let threshold = low +. (threshold_frac *. (peak -. low)) in
    let hot = Array.make (nx * ny) false in
    Geo.Grid.iteri thermal ~f:(fun ~ix ~iy v ->
        if v >= threshold then hot.((iy * nx) + ix) <- true);
    let clusters = clusters_of_mask ~nx ~ny hot in
    let nl = placement.Place.Placement.nl in
    let make members =
      let rect =
        List.fold_left
          (fun acc (ix, iy) ->
             let tr = Geo.Grid.tile_rect thermal ~ix ~iy in
             match acc with
             | None -> Some tr
             | Some r -> Some (Geo.Rect.union r tr))
          None members
      in
      let rect = Option.get rect in
      let peak_rise_k =
        List.fold_left
          (fun acc (ix, iy) -> Float.max acc (Geo.Grid.get thermal ~ix ~iy))
          neg_infinity members
      in
      let cells = ref [] in
      Netlist.Types.iter_cells nl ~f:(fun cid _ ->
          let x, y = Place.Placement.cell_center placement cid in
          if Geo.Rect.contains rect ~x ~y then cells := cid :: !cells);
      { rect; tiles = members; peak_rise_k; cells = List.rev !cells }
    in
    clusters
    |> List.map make
    |> List.sort (fun a b -> compare b.peak_rise_k a.peak_rise_k)
  end

let tile_count h = List.length h.tiles

let to_json h =
  Obs.Json.Obj
    [ ("rect",
       Obs.Json.Obj
         [ ("lx", Obs.Json.Float h.rect.Geo.Rect.lx);
           ("ly", Obs.Json.Float h.rect.Geo.Rect.ly);
           ("hx", Obs.Json.Float h.rect.Geo.Rect.hx);
           ("hy", Obs.Json.Float h.rect.Geo.Rect.hy) ]);
      ("area_um2", Obs.Json.Float (Geo.Rect.area h.rect));
      ("tiles", Obs.Json.Int (tile_count h));
      ("cells", Obs.Json.Int (List.length h.cells));
      ("peak_rise_k", Obs.Json.Float h.peak_rise_k) ]

let span_rows fp h =
  let rh = fp.Place.Floorplan.tech.Celllib.Tech.row_height_um in
  (* floor, not int_of_float: truncation rounds toward zero, so a rect
     just below the core (slightly negative ly) would map to row 0 instead
     of clamping away — mirrors Place.Floorplan.row_of_y. A rect entirely
     outside the core yields an empty span (lo > hi). *)
  let lo = int_of_float (Float.floor (h.rect.Geo.Rect.ly /. rh)) in
  let hi = int_of_float (Float.floor ((h.rect.Geo.Rect.hy -. 1e-9) /. rh)) in
  (max 0 lo, min (fp.Place.Floorplan.num_rows - 1) hi)

let is_wide fp h =
  Geo.Rect.width h.rect >= 0.5 *. Geo.Rect.width fp.Place.Floorplan.core
