(* The layered 7-point operator ([Thermal.Stencil]) against a reference:
   - golden digests of solver outputs, recorded on the compressed-row
     implementation the stencil replaced, pin the exact bits end to end;
   - [Ref_csr], that implementation kept as a test-only copy (triplet
     assembly, CSR SpMV and SSOR), must agree bit for bit with the
     stencil's assembly, [mul] and [ssor_apply] on generated meshes;
   - CG under every preconditioner must agree with the dense Cholesky
     solve on generated meshes. *)

module M = Thermal.Mesh
module S = Thermal.Stencil

(* --- golden digests ---------------------------------------------------

   MD5 of the exact IEEE-754 bits of solver outputs on fixed inputs. Any
   change to the assembly order, the SpMV or SSOR summation order, the
   multigrid cycle or the CG recurrences flips a digest. *)

let digest_floats arrays =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)))
    arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let grid_values g =
  Array.init
    (Geo.Grid.nx g * Geo.Grid.ny g)
    (fun k ->
      Geo.Grid.get g ~ix:(k mod Geo.Grid.nx g) ~iy:(k / Geo.Grid.nx g))

(* A non-uniform map: a smooth background plus two hot tiles. *)
let power ~nx ~ny ~w ~h =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w ~h in
  Geo.Grid.of_function ~nx ~ny ~extent ~f:(fun ~ix ~iy ->
      let base =
        2e-5 *. (1.0 +. (0.5 *. sin (float_of_int ((3 * ix) + iy) /. 7.0)))
      in
      if (ix = nx / 3 && iy = ny / 4) || (ix = (2 * nx) / 3 && iy = ny / 2)
      then base +. 4e-3
      else base)

let power_40 () = power ~nx:40 ~ny:40 ~w:400.0 ~h:400.0

let cfg ?(stack = Thermal.Stack.default_9layer) nx ny = { M.nx; ny; stack }

let side_stack =
  { Thermal.Stack.default_9layer with Thermal.Stack.h_side_w_m2k = 2.0e4 }

let solution_bits (s : M.solution) =
  digest_floats
    [ s.M.temp; [| float_of_int s.M.cg_iterations; s.M.cg_residual |] ]

let check_digest what expected got =
  Alcotest.(check string) (what ^ " digest") expected got

let test_mesh_solves_40 () =
  M.cache_clear ();
  let p = M.build (cfg 40 40) ~power:(power_40 ()) in
  let solve c =
    solution_bits (M.solve ~precond:(M.precond_of_choice p c) p)
  in
  check_digest "jacobi 40x40" "05e28a3662d8577b01c75789134f68cf"
    (solve M.Pc_jacobi);
  check_digest "ssor 40x40" "245383aa7a4caa48a357d60d2eae3c9d"
    (solve M.Pc_ssor);
  check_digest "mg 40x40" "07f8c3571072385e1dde93c61ecf3af4"
    (solve M.Pc_mg)

let test_mg_side_walls_24x17 () =
  M.cache_clear ();
  let p =
    M.build (cfg ~stack:side_stack 24 17)
      ~power:(power ~nx:24 ~ny:17 ~w:300.0 ~h:170.0)
  in
  check_digest "mg 24x17 side walls" "a91a81ba3b20e5d199dc0c453d44ae3b"
    (solution_bits (M.solve ~precond:(M.precond_of_choice p M.Pc_mg) p))

let test_adjoint_sensitivity () =
  M.cache_clear ();
  let p = M.build (cfg 40 40) ~power:(power_40 ()) in
  let adj =
    Thermal.Adjoint.solve ~precond:(M.precond_of_choice p M.Pc_mg) p
  in
  check_digest "adjoint sensitivity" "4e3516c96c05b4b9a7f88f0347cfb5ae"
    (digest_floats
       [ grid_values adj.Thermal.Adjoint.sensitivity;
         [| adj.Thermal.Adjoint.smoothed_peak_k |] ])

let test_transient_peaks () =
  M.cache_clear ();
  let run precond =
    let r =
      Thermal.Transient.step_response (cfg 12 12)
        ~power:(power ~nx:12 ~ny:12 ~w:120.0 ~h:120.0)
        ~steps:12 ~precond ()
    in
    digest_floats
      [ r.Thermal.Transient.peak_rise_k;
        [| float_of_int r.Thermal.Transient.cg_iterations |] ]
  in
  check_digest "transient ssor" "d607bcf8045b4fce7713bc7d1322cf79"
    (run M.Pc_ssor);
  check_digest "transient mg" "91a619c0d14a5a4782cd8a47df5df37a"
    (run M.Pc_mg)

(* The gradient guide on test set 1 at 40x40, 8 rows. The digest of the
   exact realization was recorded before the spectral one existed (it is
   the realization every run used then); the spectral realization must
   commit the same plan and confirm its peak to 1e-9 relative. *)
let gradient_plan_ts1_40 screen =
  M.cache_clear ();
  Parallel.Pool.set_jobs 1;
  let fl =
    Postplace.Experiment.test_set_1 ~guide:Postplace.Flow.Guide_gradient
      ~screen ()
  in
  let r = Postplace.Optimizer.greedy_rows fl ~rows:8 ~coarse_nx:40 () in
  let plan = r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after in
  let peak = r.Postplace.Optimizer.predicted_peak_k in
  ( Postplace.Technique.plan_hash plan,
    peak,
    Digest.to_hex
      (Digest.string
         (Postplace.Technique.plan_hash plan ^ digest_floats [ [| peak |] ])),
    r.Postplace.Optimizer.realization )

let test_gradient_plan_ts1_40 () =
  let _, _, digest, realization =
    gradient_plan_ts1_40 Postplace.Flow.Screen_exact
  in
  check_digest "gradient plan ts1 40x40" "24861dedc7096697436a6319cceae8c1"
    digest;
  Alcotest.(check bool) "exact realization" true
    (realization
     = Some Postplace.Optimizer.(Exact Screen_exact))

let test_gradient_plan_ts1_40_spectral () =
  let exact_hash, exact_peak, _, _ =
    gradient_plan_ts1_40 Postplace.Flow.Screen_exact
  in
  let hash, peak, digest, realization =
    gradient_plan_ts1_40 Postplace.Flow.Screen_auto
  in
  Alcotest.(check bool) "spectral realization" true
    (realization = Some Postplace.Optimizer.Spectral);
  Alcotest.(check string) "same plan as exact" exact_hash hash;
  Alcotest.(check bool)
    (Printf.sprintf "peak %.17g within 1e-9 of exact %.17g" peak exact_peak)
    true
    (Float.abs (peak -. exact_peak) <= 1e-9 *. Float.abs exact_peak);
  check_digest "gradient plan ts1 40x40 spectral" "cabe90f28ae5a0a84a1e4661a6d3c0bf"
    digest

let test_spice_12 () =
  M.cache_clear ();
  let export stack =
    Thermal.Spice.to_string
      (M.build ~cache:false (cfg ~stack 12 12)
         ~power:(power ~nx:12 ~ny:12 ~w:120.0 ~h:120.0))
  in
  check_digest "spice 12x12" "0bb5f39192363037041f3c339f8133f5"
    (Digest.to_hex (Digest.string (export Thermal.Stack.default_9layer)));
  check_digest "spice 12x12 side walls" "b75b9c738daa6ec5b7b8141c9aef976f"
    (Digest.to_hex (Digest.string (export side_stack)))

(* --- reference: triplet assembly and CSR kernels --------------------- *)

module Ref_csr = struct
  (* The compressed-row matrix, triplet builder and kernels the stencil
     replaced, kept verbatim. *)
  type builder = {
    n : int;
    mutable rows_ : int array;
    mutable cols_ : int array;
    mutable vals_ : float array;
    mutable len : int;
  }

  let builder ~n =
    if n <= 0 then invalid_arg "Ref_csr.builder: n <= 0";
    { n; rows_ = Array.make 64 0; cols_ = Array.make 64 0;
      vals_ = Array.make 64 0.0; len = 0 }

  let add b i j v =
    if i < 0 || i >= b.n || j < 0 || j >= b.n then
      invalid_arg "Ref_csr.add: index out of range";
    if b.len = Array.length b.rows_ then begin
      let cap = 2 * b.len in
      let grow a zero = let a' = Array.make cap zero in
        Array.blit a 0 a' 0 b.len; a' in
      b.rows_ <- grow b.rows_ 0;
      b.cols_ <- grow b.cols_ 0;
      b.vals_ <- grow b.vals_ 0.0
    end;
    b.rows_.(b.len) <- i;
    b.cols_.(b.len) <- j;
    b.vals_.(b.len) <- v;
    b.len <- b.len + 1

  type t = {
    dim : int;
    row_ptr : int array;   (* length dim+1 *)
    col_idx : int array;
    values : float array;
  }

  (* Triplets -> CSR with duplicate summation: counting sort by row, then an
     in-row sort by column and a merge of equal columns, all on flat arrays
     (assembly speed matters: the 14400-node mesh is rebuilt per experiment
     point). *)
  let of_builder b =
    let counts = Array.make (b.n + 1) 0 in
    for k = 0 to b.len - 1 do
      counts.(b.rows_.(k) + 1) <- counts.(b.rows_.(k) + 1) + 1
    done;
    for i = 1 to b.n do counts.(i) <- counts.(i) + counts.(i - 1) done;
    let order = Array.make (max 1 b.len) 0 in
    let cursor = Array.copy counts in
    for k = 0 to b.len - 1 do
      let r = b.rows_.(k) in
      order.(cursor.(r)) <- k;
      cursor.(r) <- cursor.(r) + 1
    done;
    let row_ptr = Array.make (b.n + 1) 0 in
    (* worst case: no duplicates at all *)
    let out_cols = Array.make (max 1 b.len) 0 in
    let out_vals = Array.make (max 1 b.len) 0.0 in
    let total = ref 0 in
    let cols_scratch = Array.make (max 1 b.len) 0 in
    let vals_scratch = Array.make (max 1 b.len) 0.0 in
    for i = 0 to b.n - 1 do
      row_ptr.(i) <- !total;
      let lo = counts.(i) and hi = counts.(i + 1) in
      let len = hi - lo in
      (* insertion sort of the (few) row entries by column *)
      for k = 0 to len - 1 do
        let t = order.(lo + k) in
        cols_scratch.(k) <- b.cols_.(t);
        vals_scratch.(k) <- b.vals_.(t)
      done;
      for k = 1 to len - 1 do
        let c = cols_scratch.(k) and v = vals_scratch.(k) in
        let j = ref (k - 1) in
        while !j >= 0 && cols_scratch.(!j) > c do
          cols_scratch.(!j + 1) <- cols_scratch.(!j);
          vals_scratch.(!j + 1) <- vals_scratch.(!j);
          decr j
        done;
        cols_scratch.(!j + 1) <- c;
        vals_scratch.(!j + 1) <- v
      done;
      let k = ref 0 in
      while !k < len do
        let c = cols_scratch.(!k) in
        let v = ref vals_scratch.(!k) in
        incr k;
        while !k < len && cols_scratch.(!k) = c do
          v := !v +. vals_scratch.(!k);
          incr k
        done;
        out_cols.(!total) <- c;
        out_vals.(!total) <- !v;
        incr total
      done
    done;
    row_ptr.(b.n) <- !total;
    { dim = b.n;
      col_idx = Array.sub out_cols 0 !total;
      values = Array.sub out_vals 0 !total;
      row_ptr }

  let mul t x y =
    if Array.length x <> t.dim || Array.length y <> t.dim then
      invalid_arg "Ref_csr.mul: dimension mismatch";
    for i = 0 to t.dim - 1 do
      let acc = ref 0.0 in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      y.(i) <- !acc
    done

  (* z <- M^-1 r for the SSOR splitting M = (D/w + L) ((2-w)/w D)^-1
     (D/w + U): a forward sweep, a diagonal scaling, a backward sweep. The
     sweeps are inherently sequential (each row consumes earlier/later
     rows), but they are O(nnz) — cheap next to the SpMV they save. *)
  let ssor_apply t ~diag ~omega r z =
    let n = t.dim in
    if Array.length r <> n || Array.length z <> n then
      invalid_arg "Ref_csr.ssor_apply: dimension mismatch";
    (* forward: (D/w + L) u = r, u accumulated in z *)
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      let k = ref t.row_ptr.(i) in
      let stop = t.row_ptr.(i + 1) in
      while !k < stop && t.col_idx.(!k) < i do
        acc := !acc +. (t.values.(!k) *. z.(t.col_idx.(!k)));
        incr k
      done;
      z.(i) <- (r.(i) -. !acc) *. omega /. diag.(i)
    done;
    (* scale by ((2-w)/w D) *)
    let s = (2.0 -. omega) /. omega in
    for i = 0 to n - 1 do
      z.(i) <- z.(i) *. diag.(i) *. s
    done;
    (* backward: (D/w + U) z = u, in place (rows below i are final) *)
    for i = n - 1 downto 0 do
      let acc = ref 0.0 in
      let k = ref (t.row_ptr.(i + 1) - 1) in
      let stop = t.row_ptr.(i) in
      while !k >= stop && t.col_idx.(!k) > i do
        acc := !acc +. (t.values.(!k) *. z.(t.col_idx.(!k)));
        decr k
      done;
      z.(i) <- (z.(i) -. !acc) *. omega /. diag.(i)
    done

  let diagonal t =
    let d = Array.make t.dim 0.0 in
    for i = 0 to t.dim - 1 do
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        if t.col_idx.(k) = i then d.(i) <- d.(i) +. t.values.(k)
      done
    done;
    d

  let iter_row t i ~f =
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f t.col_idx.(k) t.values.(k)
    done

  let um_to_m v = v *. 1.0e-6

  (* The node-by-node triplet assembly of the conductance matrix. *)
  let assemble (cfg : M.config) ~extent =
    let stack = cfg.M.stack in
    let nz = Thermal.Stack.num_layers stack in
    let nx = cfg.M.nx and ny = cfg.M.ny in
    let dx = um_to_m (Geo.Rect.width extent /. float_of_int nx) in
    let dy = um_to_m (Geo.Rect.height extent /. float_of_int ny) in
    let tile_area = dx *. dy in
    let b = builder ~n:(nx * ny * nz) in
    let couple i j g =
      add b i i g;
      add b j j g;
      add b i j (-.g);
      add b j i (-.g)
    in
    let ground i g = if g > 0.0 then add b i i g in
    let layers = stack.Thermal.Stack.layers in
    let r_half (l : Thermal.Stack.layer) =
      um_to_m l.Thermal.Stack.thickness_um /. 2.0
      /. (l.Thermal.Stack.conductivity_w_mk *. tile_area)
    in
    for iz = 0 to nz - 1 do
      let dz = um_to_m layers.(iz).Thermal.Stack.thickness_um in
      let k = layers.(iz).Thermal.Stack.conductivity_w_mk in
      for iy = 0 to ny - 1 do
        for ix = 0 to nx - 1 do
          let i = M.node_index cfg ~ix ~iy ~iz in
          if ix + 1 < nx then couple i (i + 1) (k *. (dy *. dz) /. dx);
          if iy + 1 < ny then couple i (i + nx) (k *. (dx *. dz) /. dy);
          if iz + 1 < nz then
            couple i (i + (nx * ny))
              (1.0 /. (r_half layers.(iz) +. r_half layers.(iz + 1)));
          if iz = 0 then
            ground i (stack.Thermal.Stack.h_bottom_w_m2k *. tile_area);
          if iz = nz - 1 then
            ground i (stack.Thermal.Stack.h_top_w_m2k *. tile_area);
          let h_side = stack.Thermal.Stack.h_side_w_m2k in
          if h_side > 0.0 then begin
            if ix = 0 || ix = nx - 1 then ground i (h_side *. dy *. dz);
            if iy = 0 || iy = ny - 1 then ground i (h_side *. dx *. dz)
          end
        done
      done
    done;
    b
end

(* --- generated meshes ------------------------------------------------- *)

type case = {
  cfg : M.config;
  extent : Geo.Rect.t;
  perturb : bool;   (* arm the Perturb_matrix fault for the assembly *)
  seed : int;       (* vectors and power map *)
}

let show_case c =
  let st = c.cfg.M.stack in
  Printf.sprintf
    "%dx%dx%d extent %gx%g h_top %g h_bottom %g h_side %g power layer %d \
     perturb %b seed %d"
    c.cfg.M.nx c.cfg.M.ny (Thermal.Stack.num_layers st)
    (Geo.Rect.width c.extent) (Geo.Rect.height c.extent)
    st.Thermal.Stack.h_top_w_m2k st.Thermal.Stack.h_bottom_w_m2k
    st.Thermal.Stack.h_side_w_m2k st.Thermal.Stack.power_layer c.perturb
    c.seed

(* Lateral sizes 1..[max_xy] (1 and the primes 2..13 included), 1..9
   layers of random thickness and conductivity, zero or non-zero sinks
   and side walls, random die extents. *)
let case_gen ~max_xy =
  let open QCheck.Gen in
  let layer =
    map2
      (fun thickness_um conductivity_w_mk ->
        { Thermal.Stack.layer_name = "l"; thickness_um; conductivity_w_mk })
      (float_range 1.0 20.0) (float_range 0.5 200.0)
  in
  let sink lo hi = oneof [ return 0.0; float_range lo hi ] in
  int_range 1 max_xy >>= fun nx ->
  int_range 1 max_xy >>= fun ny ->
  int_range 1 9 >>= fun nz ->
  array_repeat nz layer >>= fun layers ->
  int_range 0 (nz - 1) >>= fun power_layer ->
  sink 1e3 1e6 >>= fun h_top ->
  sink 1e2 1e5 >>= fun h_bottom ->
  sink 1e3 1e5 >>= fun h_side ->
  float_range 20.0 2000.0 >>= fun w ->
  float_range 20.0 2000.0 >>= fun h ->
  bool >>= fun perturb ->
  int_bound 1_000_000 >>= fun seed ->
  let h_top = if h_top = 0.0 && h_bottom = 0.0 && h_side = 0.0 then 1e5
    else h_top in
  let stack =
    { Thermal.Stack.layers; power_layer; h_top_w_m2k = h_top;
      h_bottom_w_m2k = h_bottom; h_side_w_m2k = h_side }
  in
  return
    { cfg = { M.nx; ny; stack };
      extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w ~h;
      perturb; seed }

let case_arb ~max_xy = QCheck.make ~print:show_case (case_gen ~max_xy)

let random_vector rng n =
  Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)

let bits a = Array.map Int64.bits_of_float a

let power_of c rng =
  Geo.Grid.of_function ~nx:c.cfg.M.nx ~ny:c.cfg.M.ny ~extent:c.extent
    ~f:(fun ~ix:_ ~iy:_ -> Random.State.float rng 1e-3)

(* The stencil of [c] through the production path (with the fault armed
   when [c.perturb]) and the reference CSR of the same case. *)
let both c =
  let power = power_of c (Random.State.make [| c.seed |]) in
  let build () = M.matrix (M.build ~cache:false c.cfg ~power) in
  let a =
    if c.perturb then
      Robust.Faults.with_fault Robust.Faults.Perturb_matrix build
    else build ()
  in
  let b = Ref_csr.assemble c.cfg ~extent:c.extent in
  if c.perturb && S.dim a > 1 then Ref_csr.add b 0 1 1.0e9;
  (a, Ref_csr.of_builder b)

let stencil_row a i =
  let r = ref [] in
  S.iter_row a i ~f:(fun j v -> r := (j, Int64.bits_of_float v) :: !r);
  List.rev !r

let prop_matches_csr =
  QCheck.Test.make ~name:"assembly, mul and ssor bit-identical to csr"
    ~count:300 (case_arb ~max_xy:13) (fun c ->
      let a, r = both c in
      let n = S.dim a in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      for i = 0 to n - 1 do
        let csr_row = ref [] in
        Ref_csr.iter_row r i ~f:(fun j v ->
            csr_row := (j, Int64.bits_of_float v) :: !csr_row);
        let csr_row = List.rev !csr_row in
        if stencil_row a i <> csr_row then fail "row %d differs" i
      done;
      let rng = Random.State.make [| c.seed |] in
      let x = random_vector rng n in
      let y1 = Array.make n 0.0 and y2 = Array.make n 0.0 in
      S.mul a x y1;
      Ref_csr.mul r x y2;
      if bits y1 <> bits y2 then fail "mul differs";
      S.mul_par a x y1;
      if bits y1 <> bits y2 then fail "mul_par differs";
      (* SSOR needs a positive diagonal; the perturbed entry is
         off-diagonal, so every generated case qualifies *)
      let diag = Ref_csr.diagonal r in
      List.iter
        (fun omega ->
          let z1 = Array.make n nan and z2 = Array.make n nan in
          S.ssor_apply a ~omega x z1;
          Ref_csr.ssor_apply r ~diag ~omega x z2;
          if bits z1 <> bits z2 then fail "ssor omega %g differs" omega)
        [ 1.0; 1.2; 1.6 ];
      true)

let prop_pcg_matches_dense =
  QCheck.Test.make ~name:"every pcg agrees with dense cholesky" ~count:40
    (case_arb ~max_xy:12) (fun c ->
      M.cache_clear ();
      let power = power_of c (Random.State.make [| c.seed |]) in
      let p = M.build ~cache:false c.cfg ~power in
      let direct =
        Thermal.Dense.solve (Thermal.Dense.of_stencil (M.matrix p)) (M.rhs p)
      in
      let scale =
        Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 direct
      in
      List.iter
        (fun (name, choice) ->
          let s = M.solve ~precond:(M.precond_of_choice p choice) p in
          let err = ref 0.0 in
          Array.iteri
            (fun i v ->
              err := Float.max !err (Float.abs (v -. s.M.temp.(i))))
            direct;
          if !err > 1e-8 *. scale then
            QCheck.Test.fail_reportf "%s: max error %.3e of peak %.3e" name
              !err scale)
        [ ("jacobi", M.Pc_jacobi); ("ssor", M.Pc_ssor); ("mg", M.Pc_mg) ];
      true)

(* --- analytic transfer ---------------------------------------------- *)

(* A case with at least 2x2 tiles, no fault and adiabatic side walls
   (keeping a heat path: the top sink stands in if the walls were the
   only one). *)
let adiabatic c =
  let st = c.cfg.M.stack in
  let h_top =
    if st.Thermal.Stack.h_top_w_m2k = 0.0
    && st.Thermal.Stack.h_bottom_w_m2k = 0.0
    then 1e5
    else st.Thermal.Stack.h_top_w_m2k
  in
  { c with
    cfg =
      { M.nx = max 2 c.cfg.M.nx; ny = max 2 c.cfg.M.ny;
        stack =
          { st with Thermal.Stack.h_side_w_m2k = 0.0; h_top_w_m2k = h_top } };
    perturb = false }

let max_abs_grid g = Geo.Grid.fold g ~init:0.0 ~f:(fun m v -> Float.max m (Float.abs v))

let max_rel_err ~exact got =
  let err = ref 0.0 in
  Geo.Grid.iteri exact ~f:(fun ~ix ~iy v ->
      err := Float.max !err (Float.abs (v -. Geo.Grid.get got ~ix ~iy)));
  !err /. max_abs_grid exact

(* The analytic kernel of a case's production stencil, its power map,
   problem and the dense solution of that problem. *)
let analytic c =
  let power = power_of c (Random.State.make [| c.seed |]) in
  let p = M.build ~cache:false c.cfg ~power in
  let kernel =
    match
      Thermal.Blur.of_stencil (M.matrix p)
        ~power_layer:c.cfg.M.stack.Thermal.Stack.power_layer ~extent:c.extent
    with
    | Ok k -> k
    | Error why -> QCheck.Test.fail_reportf "no analytic transfer: %s" why
  in
  let dense =
    { M.config = c.cfg; extent = c.extent;
      temp =
        Thermal.Dense.solve (Thermal.Dense.of_stencil (M.matrix p)) (M.rhs p);
      cg_iterations = 0; cg_residual = 0.0; cg_rungs = [] }
  in
  (power, p, kernel, dense)

let prop_analytic_matches_dense =
  QCheck.Test.make ~name:"analytic transfer matches dense active layer"
    ~count:40 (case_arb ~max_xy:13) (fun c ->
      let c = adiabatic c in
      let power, _, kernel, dense = analytic c in
      let err =
        max_rel_err ~exact:(M.active_layer_grid dense)
          (Thermal.Blur.field kernel ~power)
      in
      if err > 1e-9 then QCheck.Test.fail_reportf "max rel error %.3e" err;
      true)

(* Spectral sensitivity (the kernel applied to the softmax weights of the
   spectral field, as the optimizer's spectral realization computes it)
   against the CG adjoint, and both against a
   superposition central difference at the most sensitive tile: the
   system is linear, so the perturbed field is T0 +/- eps u with
   u = G^-1 e_tile solved densely. *)
let prop_spectral_sensitivity =
  QCheck.Test.make ~name:"spectral sensitivity = cg adjoint = fd" ~count:30
    (case_arb ~max_xy:12) (fun c ->
      let c = adiabatic c in
      let power, p, kernel, dense = analytic c in
      let sharpness = Thermal.Adjoint.default_sharpness in
      let spectral = Thermal.Adjoint.spectral_sensitivity kernel ~power in
      let adj =
        Thermal.Adjoint.solve ~precond:(M.precond_of_choice p M.Pc_mg) p
      in
      let cg = adj.Thermal.Adjoint.sensitivity in
      let err = max_rel_err ~exact:cg spectral in
      if err > 1e-8 then
        QCheck.Test.fail_reportf "spectral vs adjoint: max rel error %.3e" err;
      let ix, iy = Geo.Grid.argmax cg in
      let e = Array.make (Array.length dense.M.temp) 0.0 in
      e.(M.node_index c.cfg ~ix ~iy
           ~iz:c.cfg.M.stack.Thermal.Stack.power_layer) <- 1.0;
      let u = Thermal.Dense.solve (Thermal.Dense.of_stencil (M.matrix p)) e in
      let shifted s =
        Thermal.Adjoint.smoothed_peak ~sharpness
          { dense with
            M.temp = Array.mapi (fun i t -> t +. (s *. u.(i))) dense.M.temp }
      in
      (* a step that moves no tile by more than 1e-5 K keeps the
         third-order truncation, ~ (beta eps u_max)^2 u_max / (6 s),
         far below the 1e-6 bound *)
      let u_max = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 u in
      let eps = 1e-5 /. u_max in
      let fd = (shifted eps -. shifted (-.eps)) /. (2.0 *. eps) in
      List.iter
        (fun (name, g) ->
          let v = Geo.Grid.get g ~ix ~iy in
          let rel = Float.abs (v -. fd) /. Float.abs fd in
          if rel > 1e-6 then
            QCheck.Test.fail_reportf "%s vs fd at (%d, %d): %.17g vs %.17g \
                                      (rel %.3e)" name ix iy v fd rel)
        [ ("spectral", spectral); ("adjoint", cg) ];
      true)

(* The uniformity check accepts exactly the laterally uniform stencils:
   an armed Perturb_matrix breaks one coupling, and side walls add a sink
   to the boundary tiles only — except on a 2x2 grid, where every tile is
   a corner, the side-wall sink is uniform and the transfer still exact. *)
let prop_uniformity_check =
  QCheck.Test.make ~name:"uniformity check rejects side walls and faults"
    ~count:300 (case_arb ~max_xy:13) (fun c ->
      let a, _ = both c in
      let nx = c.cfg.M.nx and ny = c.cfg.M.ny in
      let side = c.cfg.M.stack.Thermal.Stack.h_side_w_m2k > 0.0 in
      let expect_ok =
        nx >= 2 && ny >= 2 && (not c.perturb)
        && ((not side) || (nx = 2 && ny = 2))
      in
      match
        Thermal.Blur.of_stencil a
          ~power_layer:c.cfg.M.stack.Thermal.Stack.power_layer
          ~extent:c.extent
      with
      | Ok _ when not expect_ok -> QCheck.Test.fail_report "accepted"
      | Error why when expect_ok -> QCheck.Test.fail_reportf "rejected: %s" why
      | Error _ -> true
      | Ok _ ->
        if side then begin
          let power, _, kernel, dense = analytic c in
          let err =
            max_rel_err ~exact:(M.active_layer_grid dense)
              (Thermal.Blur.field kernel ~power)
          in
          if err > 1e-9 then
            QCheck.Test.fail_reportf "2x2 side walls: max rel error %.3e" err
        end;
        true)

let qcheck ~seed t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let () =
  Alcotest.run "stencil"
    [ ("golden bits",
       [ Alcotest.test_case "mesh solves 40x40" `Quick test_mesh_solves_40;
         Alcotest.test_case "mg side walls 24x17" `Quick
           test_mg_side_walls_24x17;
         Alcotest.test_case "adjoint sensitivity" `Quick
           test_adjoint_sensitivity;
         Alcotest.test_case "transient peaks" `Quick test_transient_peaks;
         Alcotest.test_case "gradient plan ts1 40x40" `Quick
           test_gradient_plan_ts1_40;
         Alcotest.test_case "gradient plan ts1 40x40 spectral" `Quick
           test_gradient_plan_ts1_40_spectral;
         Alcotest.test_case "spice 12x12" `Quick test_spice_12 ]);
      ("reference",
       [ qcheck ~seed:14 prop_matches_csr;
         qcheck ~seed:15 prop_pcg_matches_dense ]);
      ("spectral",
       [ qcheck ~seed:16 prop_analytic_matches_dense;
         qcheck ~seed:17 prop_spectral_sensitivity;
         qcheck ~seed:18 prop_uniformity_check ]) ]
