type config = {
  nx : int;
  ny : int;
  stack : Stack.t;
}

let default_config = { nx = 40; ny = 40; stack = Stack.default_9layer }

type problem = {
  p_config : config;
  p_extent : Geo.Rect.t;
  p_matrix : Stencil.t;
  p_rhs : float array;
  p_cold_iters : int option ref;
  (* iterations of the first cold solve of this matrix, shared across every
     problem built from the same cache entry: the baseline against which
     warm-start savings are measured *)
  p_mg : Multigrid.t option ref;
  (* lazily built multigrid hierarchy for this matrix, shared the same way
     so an optimizer run builds it once per cached mesh *)
  p_analytic : (Blur.t, string) result option ref;
  (* lazily computed analytic transfer (or the reason the stencil has
     none), shared across the cache entry like the hierarchy *)
}

let matrix p = p.p_matrix
let rhs p = p.p_rhs
let config p = p.p_config
let extent p = p.p_extent

(* Same cached matrix (and MG hierarchy / blur kernel riding the cache
   entry), different right-hand side — the adjoint solve injects its
   source into the same operator. *)
let with_rhs p rhs =
  if Array.length rhs <> Array.length p.p_rhs then
    invalid_arg "Mesh.with_rhs: rhs dimension mismatch";
  { p with p_rhs = rhs }

let node_index cfg ~ix ~iy ~iz =
  assert (ix >= 0 && ix < cfg.nx && iy >= 0 && iy < cfg.ny
          && iz >= 0 && iz < Stack.num_layers cfg.stack);
  (((iz * cfg.ny) + iy) * cfg.nx) + ix

let um_to_m v = v *. 1.0e-6

(* Conductance between two stacked cells: half-cell resistances in series,
   each R = (thickness/2) / (k * A). *)
let vertical_conductance ~area_m2 (a : Stack.layer) (b : Stack.layer) =
  let r_half (l : Stack.layer) =
    um_to_m l.Stack.thickness_um /. 2.0
    /. (l.Stack.conductivity_w_mk *. area_m2)
  in
  1.0 /. (r_half a +. r_half b)

(* Lateral conductance inside one layer: uniform k, full cell pitch. *)
let lateral_conductance ~k ~cross_m2 ~pitch_m = k *. cross_m2 /. pitch_m

(* Conductance-matrix assembly, straight into the stencil arrays in one
   pass. The matrix depends only on (config, extent) — power enters
   through the rhs alone — which is what makes the matrix cache below
   sound. Each off-diagonal is one coupling, -g. Each diagonal adds its
   conductances to 0.0 in a fixed order: below, south, west, east, north,
   above, bottom sink, top sink, x side wall, y side wall. That is the
   order a node-by-node triplet assembly meets them, and the golden tests
   pin the resulting bits. *)
(* Row [i]'s coupling of conductance [g] to the neighbour held in
   [coef]: the off-diagonal is -g, and [d], the diagonal so far, grows
   by g. *)
let couple coef i g d =
  coef.(i) <- -.g;
  d +. g

(* A conductance to ambient joins the diagonal only where it applies and
   is positive. *)
let sink applies g d = if applies && g > 0.0 then d +. g else d

let assemble_raw cfg ~extent =
  let stack = cfg.stack in
  let nx = cfg.nx and ny = cfg.ny in
  let nz = Stack.num_layers stack in
  let dx = um_to_m (Geo.Rect.width extent /. float_of_int nx) in
  let dy = um_to_m (Geo.Rect.height extent /. float_of_int ny) in
  let tile_area = dx *. dy in
  let layers = stack.Stack.layers in
  let dz iz = um_to_m layers.(iz).Stack.thickness_um in
  let lateral iz ~cross_m2 ~pitch_m =
    lateral_conductance ~k:layers.(iz).Stack.conductivity_w_mk ~cross_m2
      ~pitch_m
  in
  let gx =
    Array.init nz (fun iz -> lateral iz ~cross_m2:(dy *. dz iz) ~pitch_m:dx)
  in
  let gy =
    Array.init nz (fun iz -> lateral iz ~cross_m2:(dx *. dz iz) ~pitch_m:dy)
  in
  (* gz.(iz): between layers iz and iz + 1 *)
  let gz =
    Array.init (nz - 1) (fun iz ->
        vertical_conductance ~area_m2:tile_area layers.(iz) layers.(iz + 1))
  in
  let g_bottom = stack.Stack.h_bottom_w_m2k *. tile_area in
  let g_top = stack.Stack.h_top_w_m2k *. tile_area in
  let h_side = stack.Stack.h_side_w_m2k in
  let a = Stencil.create ~nx ~ny ~nz in
  for iz = 0 to nz - 1 do
    let side_x = h_side *. dy *. dz iz and side_y = h_side *. dx *. dz iz in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let i = (((iz * ny) + iy) * nx) + ix in
        let d = 0.0 in
        let d = if iz > 0 then couple a.Stencil.below i gz.(iz - 1) d else d in
        let d = if iy > 0 then couple a.Stencil.south i gy.(iz) d else d in
        let d = if ix > 0 then couple a.Stencil.west i gx.(iz) d else d in
        let d = if ix + 1 < nx then couple a.Stencil.east i gx.(iz) d else d in
        let d = if iy + 1 < ny then couple a.Stencil.north i gy.(iz) d else d in
        let d = if iz + 1 < nz then couple a.Stencil.above i gz.(iz) d else d in
        let d = sink (iz = 0) g_bottom d in
        let d = sink (iz = nz - 1) g_top d in
        let d = sink (ix = 0 || ix = nx - 1) side_x d in
        let d = sink (iy = 0 || iy = ny - 1) side_y d in
        a.Stencil.diag.(i) <- d
      done
    done
  done;
  a

(* Fault-injecting assembly of the primary solve path. The fault-free
   [assemble_raw] serves the coarse multigrid operators: coarse levels are
   internal rediscretizations, so a Perturb_matrix fault must hit the fine
   system the caller actually solves, not be consumed (and possibly crash
   the coarse Cholesky) several levels down. *)
let assemble cfg ~extent =
  let a = assemble_raw cfg ~extent in
  (* fault hook: one asymmetric off-diagonal spike at entry (0,1) breaks
     SPD-ness, which the CG breakdown guards and Postplace.Checks must
     both catch *)
  if Stencil.dim a > 1 && Robust.Faults.consume Robust.Faults.Perturb_matrix
  then Stencil.add a 0 1 1.0e9;
  a

(* MRU cache of assembled matrices keyed by (config, extent), both plain
   structural data. An optimizer run or sweep rebuilds the same mesh for
   every candidate power map; only the rhs actually changes. *)
type cache_entry = {
  ce_matrix : Stencil.t;
  ce_cold_iters : int option ref;
  ce_mg : Multigrid.t option ref;
  ce_analytic : (Blur.t, string) result option ref;
}

let fresh_entry matrix =
  { ce_matrix = matrix; ce_cold_iters = ref None; ce_mg = ref None;
    ce_analytic = ref None }

(* 8 slots cover the optimizer (one extent per inserted-row count) plus
   a package sweep; an entry also carries the MG hierarchy and the blur
   kernel, both worth keeping across a thrash. *)
let cache_capacity = 8
let cache_mutex = Mutex.create ()
let cache_entries : ((config * Geo.Rect.t) * cache_entry) list ref = ref []

let cache_clear () =
  Mutex.protect cache_mutex (fun () -> cache_entries := [])

let cache_lookup key =
  Mutex.protect cache_mutex (fun () ->
      match List.assoc_opt key !cache_entries with
      | Some e ->
        (* move to front *)
        cache_entries :=
          (key, e) :: List.filter (fun (k, _) -> k <> key) !cache_entries;
        Some e
      | None -> None)

let cache_insert key e =
  Mutex.protect cache_mutex (fun () ->
      match List.assoc_opt key !cache_entries with
      | Some existing -> existing (* a racing build won; reuse its entry *)
      | None ->
        let keep = cache_capacity - 1 in
        let len = List.length !cache_entries in
        let kept = List.filteri (fun i _ -> i < keep) !cache_entries in
        if len > keep then
          Obs.Metrics.count "thermal.mesh.cache.evictions" ~by:(len - keep);
        cache_entries := (key, e) :: kept;
        e)

let cache_remove key =
  Mutex.protect cache_mutex (fun () ->
      cache_entries := List.filter (fun (k, _) -> k <> key) !cache_entries)

(* a deliberately wrong-sized entry, substituted on a cache hit by the
   [Stale_mesh_cache] fault to prove the defensive check below fires *)
let stale_probe () =
  let a = Stencil.create ~nx:1 ~ny:1 ~nz:1 in
  Stencil.add a 0 0 1.0;
  fresh_entry a

let build ?(cache = true) cfg ~power =
  Obs.Trace.with_span "thermal.mesh.build" @@ fun () ->
  begin match Stack.validate cfg.stack with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mesh.build: " ^ msg)
  end;
  if Geo.Grid.nx power <> cfg.nx || Geo.Grid.ny power <> cfg.ny then
    invalid_arg "Mesh.build: power grid dimensions mismatch";
  let extent = Geo.Grid.extent power in
  let n = cfg.nx * cfg.ny * Stack.num_layers cfg.stack in
  let entry =
    (* while a matrix-perturbation fault is armed the cache is bypassed in
       both directions: the poisoned matrix must not be published for later
       healthy builds, and a healthy cached matrix must not mask the fault *)
    if not cache || Robust.Faults.armed Robust.Faults.Perturb_matrix then
      fresh_entry (assemble cfg ~extent)
    else begin
      let key = (cfg, extent) in
      match cache_lookup key with
      | Some e ->
        let e =
          if Robust.Faults.consume Robust.Faults.Stale_mesh_cache then
            stale_probe ()
          else e
        in
        (* defensive hit validation: a stale or corrupted entry whose
           dimension disagrees with the requested mesh would crash deep
           inside CG (or worse, silently solve the wrong system) — evict
           and reassemble instead *)
        if Stencil.dim e.ce_matrix <> n then begin
          Obs.Metrics.count "thermal.mesh.cache.stale";
          Obs.Log.warn
            (Printf.sprintf
               "Mesh.build: cached matrix has dim %d, expected %d; evicting \
                and reassembling"
               (Stencil.dim e.ce_matrix) n);
          cache_remove key;
          cache_insert key (fresh_entry (assemble cfg ~extent))
        end
        else begin
          Obs.Metrics.count "thermal.mesh.cache.hits";
          e
        end
      | None ->
        Obs.Metrics.count "thermal.mesh.cache.misses";
        (* assemble outside the cache lock; worst case two racing builds
           assemble the same matrix and one is dropped *)
        cache_insert key (fresh_entry (assemble cfg ~extent))
    end
  in
  let rhs = Array.make n 0.0 in
  let zp = cfg.stack.Stack.power_layer in
  Geo.Grid.iteri power ~f:(fun ~ix ~iy w ->
      rhs.(node_index cfg ~ix ~iy ~iz:zp) <- w);
  { p_config = cfg; p_extent = extent; p_matrix = entry.ce_matrix;
    p_rhs = rhs; p_cold_iters = entry.ce_cold_iters;
    p_mg = entry.ce_mg; p_analytic = entry.ce_analytic }

let multigrid p =
  match !(p.p_mg) with
  | Some h when Multigrid.fine_dim h = Stencil.dim p.p_matrix -> h
  | _ ->
    let cfg = p.p_config in
    let h =
      Multigrid.build ~fine:p.p_matrix ~assemble:(fun ~nx ~ny ->
          assemble_raw { cfg with nx; ny } ~extent:p.p_extent)
    in
    (* benign race: two domains may build concurrently and the later write
       wins, but both hierarchies come from the same matrix so either is
       valid (mirrors the matrix cache's assemble-outside-the-lock policy) *)
    p.p_mg := Some h;
    h

type precond_choice = Pc_jacobi | Pc_ssor | Pc_mg

let preconds =
  [ ("auto", None); ("jacobi", Some Pc_jacobi); ("ssor", Some Pc_ssor);
    ("mg", Some Pc_mg) ]

let precond_choice_name c = fst (List.find (fun (_, v) -> v = c) preconds)

let precond_of_choice p = function
  | Pc_jacobi -> Cg.Jacobi
  | Pc_ssor -> Cg.Ssor Cg.ssor_omega
  | Pc_mg -> Cg.Multigrid (multigrid p)

type solution = {
  config : config;
  extent : Geo.Rect.t;
  temp : float array;
  cg_iterations : int;
  cg_residual : float;
  cg_rungs : string list;
}

let solve_result ?(tol = Cg.default_tol) ?max_iter ?precond ?x0 p =
  Obs.Trace.with_span "thermal.solve" @@ fun () ->
  let esc =
    Cg.solve_escalating p.p_matrix ~b:p.p_rhs ~tol ?max_iter ?precond ?x0 ()
  in
  let outcome = esc.Cg.esc_outcome in
  match esc.Cg.esc_status with
  | Cg.Degraded ->
    Error
      (Robust.Error.Solver_diverged
         { residual = outcome.Cg.residual;
           iterations = outcome.Cg.iterations;
           rungs = "requested" :: esc.Cg.esc_rungs })
  | Cg.Clean | Cg.Recovered _ ->
    (match esc.Cg.esc_status with
     | Cg.Recovered rung ->
       Obs.Log.warn
         (Printf.sprintf "Mesh.solve: recovered via %s escalation rung" rung)
     | _ -> ());
    (* warm-start bookkeeping only applies to clean solves: a recovered
       rung ran cold under a different configuration, so comparing its
       iteration count against the cold baseline would be meaningless *)
    (match esc.Cg.esc_status, x0, !(p.p_cold_iters) with
     | Cg.Clean, None, None -> p.p_cold_iters := Some outcome.Cg.iterations
     | Cg.Clean, Some _, Some cold ->
       Obs.Metrics.observe "thermal.mesh.warm.saved_iterations"
         (float_of_int (cold - outcome.Cg.iterations))
     | _ -> ());
    Ok { config = p.p_config; extent = p.p_extent; temp = outcome.Cg.x;
         cg_iterations = outcome.Cg.iterations;
         cg_residual = outcome.Cg.residual;
         cg_rungs = esc.Cg.esc_rungs }

let solve ?tol ?max_iter ?precond ?x0 p =
  match solve_result ?tol ?max_iter ?precond ?x0 p with
  | Ok s -> s
  | Error e -> Robust.Error.raise_ e

let layer_grid s ~iz =
  let cfg = s.config in
  Geo.Grid.of_function ~nx:cfg.nx ~ny:cfg.ny ~extent:s.extent
    ~f:(fun ~ix ~iy -> s.temp.(node_index cfg ~ix ~iy ~iz))

let active_layer_grid s =
  layer_grid s ~iz:s.config.stack.Stack.power_layer

let fits cfg b = Blur.nx b = cfg.nx && Blur.ny b = cfg.ny

let analytic_blur p =
  match !(p.p_analytic) with
  | Some (Ok b) when fits p.p_config b -> Ok b
  | Some (Error _ as e) -> e
  | _ ->
    let r =
      Blur.of_stencil p.p_matrix
        ~power_layer:p.p_config.stack.Stack.power_layer ~extent:p.p_extent
    in
    (* benign race, same policy as [multigrid] *)
    p.p_analytic := Some r;
    r

(* [precond] is accepted and unused: the transfer needs no solve *)
let blur ?precond:_ p =
  match analytic_blur p with
  | Ok b -> b
  | Error reason -> invalid_arg ("Mesh.blur: " ^ reason)
