(* FFT spectral transfer for the active layer. Layouts:

   - logical grids are nx x ny, x-major (Geo.Grid order);
   - everything lives on the 2n-per-axis *even half-sample extension*:
     ext[e] maps to tile e for e < n and to tile 2n-1-e for e >= n. The
     die's lateral walls are adiabatic by default, i.e. Neumann BC via
     half-sample reflection — exactly the symmetry of this extension —
     and the stack's lateral stencil is translation-invariant, so on the
     2n-periodic extension the power->temperature map is a genuine cyclic
     convolution and the FFT diagonalizes it *exactly*;
   - the kernel spectrum is the stencil's exact discrete transfer,
     computed from its coefficients (see [of_stencil] below); the
     kx = nx and ky = ny modes are zero, since no even-extended field
     has content there;
   - the extension length 2n is even but rarely a power of two; the Fft
     module's Bluestein path handles every length, so no padding beyond
     2n is ever introduced (padding would break the exact cyclicity);
   - half-spectra are stored column-major, [kx * my + ky] with
     kx <= mx/2 = nx, so a column transform works on a contiguous
     slice. *)

type t = {
  b_nx : int;
  b_ny : int;
  b_extent : Geo.Rect.t;
  b_mx : int; (* 2 * nx *)
  b_my : int; (* 2 * ny *)
  b_hx : int; (* nx + 1: stored columns of the half-spectrum *)
  b_k : float array;
  (* transfer spectrum, b_hx * b_my; real, since the transfer is
     symmetric *)
}

let nx t = t.b_nx
let ny t = t.b_ny
let extent t = t.b_extent

(* Even half-sample extension index [e] in [0, 2n) back to the logical
   tile it reflects: [0, n) is the die itself, [n, 2n) its mirror. *)
let mirror n e = if e < n then e else (2 * n) - 1 - e

(* --- analytic transfer --------------------------------------------------

   A laterally uniform stencil — every layer couples its tiles through one
   gx and one gy, layers couple through one gz, and each layer's diagonal
   is its couplings plus one sink shared by every tile — is diagonalized by
   the product DCT-II in x and y, the cosine basis of the adiabatic
   (half-sample Neumann) walls: the x-mode k has eigenvalue
   lambda = 2 - 2 cos (pi k / nx) of the 1-D Neumann Laplacian. Mode
   (kx, ky) then leaves a tridiagonal system in z,

     A = tridiag(-gz(z-1), gx(z) lx + gy(z) ly + gz(z-1) + gz(z) + s(z),
                 -gz(z)),

   and the power-layer transfer is the (zp, zp) entry of its inverse. The
   DCT-II mode extends evenly to DFT modes k and 2n - k of the half-sample
   extension, so that entry is exactly the (real, symmetric) transfer of
   the extended cyclic convolution — without any solve. *)

(* Per-layer coefficients read back from a laterally uniform stencil, or
   the first violation found. Couplings must be equal bit for bit (the
   assembly writes one value per layer and axis); each diagonal must equal
   its couplings plus the layer's sink up to the rounding of the two sums
   (16 ulps of the diagonal). *)
type layers = {
  l_gx : float array;
  l_gy : float array;
  l_gz : float array; (* nz - 1 inter-layer couplings *)
  l_sink : float array;
}

let uniform_layers (a : Stencil.t) =
  let nx = a.Stencil.nx and ny = a.Stencil.ny and nz = a.Stencil.nz in
  let nxy = nx * ny in
  let exception Non_uniform of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Non_uniform m)) fmt in
  (* every entry of [coef] over tiles [x0..x1] x [y0..y1] of layer [iz]
     equals [c] *)
  let same what coef (c : float) iz ~x0 ~x1 ~y0 ~y1 =
    for iy = y0 to y1 do
      for ix = x0 to x1 do
        if coef.((iz * nxy) + (iy * nx) + ix) <> c then
          fail "%s coupling differs in layer %d at tile (%d, %d)" what iz ix
            iy
      done
    done
  in
  try
    if nx < 2 || ny < 2 then fail "grid smaller than 2x2";
    let gx = Array.init nz (fun iz -> -.a.Stencil.east.(iz * nxy)) in
    let gy = Array.init nz (fun iz -> -.a.Stencil.north.(iz * nxy)) in
    let gz = Array.init (nz - 1) (fun iz -> -.a.Stencil.above.(iz * nxy)) in
    let x1 = nx - 1 and y1 = ny - 1 in
    for iz = 0 to nz - 1 do
      let cx = -.gx.(iz) and cy = -.gy.(iz) in
      if iz > 0 then
        same "below" a.Stencil.below (-.gz.(iz - 1)) iz ~x0:0 ~x1 ~y0:0 ~y1;
      same "south" a.Stencil.south cy iz ~x0:0 ~x1 ~y0:1 ~y1;
      same "west" a.Stencil.west cx iz ~x0:1 ~x1 ~y0:0 ~y1;
      same "east" a.Stencil.east cx iz ~x0:0 ~x1:(x1 - 1) ~y0:0 ~y1;
      same "north" a.Stencil.north cy iz ~x0:0 ~x1 ~y0:0 ~y1:(y1 - 1);
      if iz < nz - 1 then
        same "above" a.Stencil.above (-.gz.(iz)) iz ~x0:0 ~x1 ~y0:0 ~y1
    done;
    (* the diagonal less its couplings, summed in the assembly's order:
       below, south, west, east, north, above *)
    let rest = Array.make (Stencil.dim a) 0.0 in
    let sink = Array.make nz 0.0 in
    for iz = 0 to nz - 1 do
      let total = ref 0.0 in
      for iy = 0 to y1 do
        for ix = 0 to x1 do
          let i = (iz * nxy) + (iy * nx) + ix in
          let c = 0.0 in
          let c = if iz > 0 then c +. gz.(iz - 1) else c in
          let c = if iy > 0 then c +. gy.(iz) else c in
          let c = if ix > 0 then c +. gx.(iz) else c in
          let c = if ix < x1 then c +. gx.(iz) else c in
          let c = if iy < y1 then c +. gy.(iz) else c in
          let c = if iz < nz - 1 then c +. gz.(iz) else c in
          rest.(i) <- a.Stencil.diag.(i) -. c;
          total := !total +. rest.(i)
        done
      done;
      sink.(iz) <- !total /. float_of_int nxy
    done;
    for i = 0 to Stencil.dim a - 1 do
      let d = a.Stencil.diag.(i) and iz = i / nxy in
      if not (d > 0.0) then fail "non-positive diagonal at node %d" i;
      if Float.abs (rest.(i) -. sink.(iz)) > 16.0 *. epsilon_float *. d then
        fail "sink differs in layer %d at tile (%d, %d)" iz (i mod nx)
          (i / nx mod ny)
    done;
    Ok { l_gx = gx; l_gy = gy; l_gz = gz; l_sink = sink }
  with Non_uniform m -> Error m

let of_stencil a ~power_layer ~extent =
  match uniform_layers a with
  | Error _ as e -> e
  | Ok l ->
    let nx = a.Stencil.nx and ny = a.Stencil.ny and nz = a.Stencil.nz in
    if power_layer < 0 || power_layer >= nz then
      invalid_arg "Blur.of_stencil: power layer out of range";
    Obs.Trace.with_span "thermal.blur.analytic" @@ fun () ->
    (* 2 - 2 cos (pi k / n), written as 4 sin^2 (pi k / 2n) so low modes
       keep their digits *)
    let lambda n =
      Array.init n (fun k ->
          let s = sin (Float.pi *. float_of_int k /. float_of_int (2 * n)) in
          4.0 *. s *. s)
    in
    let lx = lambda nx and ly = lambda ny in
    let zp = power_layer in
    (* [A^-1](zp, zp) = 1 / (a(zp) - below - above): Thomas elimination
       from the bottom up to zp and from the top down to it, the two
       Schur complements meeting at the power layer *)
    let diag_at iz ~lx ~ly =
      (l.l_gx.(iz) *. lx) +. (l.l_gy.(iz) *. ly)
      +. (if iz > 0 then l.l_gz.(iz - 1) else 0.0)
      +. (if iz < nz - 1 then l.l_gz.(iz) else 0.0)
      +. l.l_sink.(iz)
    in
    let transfer ~lx ~ly =
      let below = ref 0.0 in
      for iz = 0 to zp - 1 do
        let piv = diag_at iz ~lx ~ly -. !below in
        below := l.l_gz.(iz) *. l.l_gz.(iz) /. piv
      done;
      let above = ref 0.0 in
      for iz = nz - 1 downto zp + 1 do
        let piv = diag_at iz ~lx ~ly -. !above in
        above := l.l_gz.(iz - 1) *. l.l_gz.(iz - 1) /. piv
      done;
      1.0 /. (diag_at zp ~lx ~ly -. !below -. !above)
    in
    let mx = 2 * nx and my = 2 * ny and hx = nx + 1 in
    let k = Array.make (hx * my) 0.0 in
    (* the kx = nx and ky = ny modes stay zero: no even-extended field
       has content there *)
    for kx = 0 to nx - 1 do
      for ky = 0 to ny - 1 do
        let h = transfer ~lx:lx.(kx) ~ly:ly.(ky) in
        k.((kx * my) + ky) <- h;
        if ky > 0 then k.((kx * my) + my - ky) <- h
      done
    done;
    Obs.Metrics.count "thermal.blur.kernels";
    Ok
      { b_nx = nx; b_ny = ny; b_extent = extent; b_mx = mx; b_my = my;
        b_hx = hx; b_k = k }

(* Apply the transfer to the even-extended [power]; [emit] receives every
   output cell of the logical nx x ny window (extension indices < n). All
   scratch is local, so a shared [t] can be evaluated concurrently from
   pool workers. *)
let convolve t ~power ~emit =
  if Geo.Grid.nx power <> t.b_nx || Geo.Grid.ny power <> t.b_ny then
    invalid_arg "Blur: power grid dimensions mismatch";
  Obs.Trace.with_span "thermal.blur.eval" @@ fun () ->
  Obs.Metrics.count "thermal.blur.evals";
  let nx = t.b_nx and ny = t.b_ny in
  let mx = t.b_mx and my = t.b_my and hx = t.b_hx in
  let g_re = Array.make (hx * my) 0.0 in
  let g_im = Array.make (hx * my) 0.0 in
  let row_re = Array.make mx 0.0 in
  let row_im = Array.make mx 0.0 in
  (* forward rows over the 2*ny extended rows, two real rows per complex
     FFT: row y0 in the real part, row y1 in the imaginary part, unpacked
     for kx <= mx/2 via F0 = (C(k) + conj(C(-k)))/2,
     F1 = (C(k) - conj(C(-k)))/(2i). [my] is even, so rows always pair
     up. *)
  let y = ref 0 in
  while !y < my do
    let y0 = !y and y1 = !y + 1 in
    let sy0 = mirror ny y0 and sy1 = mirror ny y1 in
    for ex = 0 to mx - 1 do
      let sx = mirror nx ex in
      row_re.(ex) <- Geo.Grid.get power ~ix:sx ~iy:sy0;
      row_im.(ex) <- Geo.Grid.get power ~ix:sx ~iy:sy1
    done;
    Fft.fft ~re:row_re ~im:row_im;
    for kx = 0 to hx - 1 do
      let k' = if kx = 0 then 0 else mx - kx in
      let ar = row_re.(kx) and ai = row_im.(kx) in
      let br = row_re.(k') and bi = row_im.(k') in
      g_re.((kx * my) + y0) <- 0.5 *. (ar +. br);
      g_im.((kx * my) + y0) <- 0.5 *. (ai -. bi);
      g_re.((kx * my) + y1) <- 0.5 *. (ai +. bi);
      g_im.((kx * my) + y1) <- 0.5 *. (br -. ar)
    done;
    y := !y + 2
  done;
  (* forward columns over the half-spectrum, then pointwise transfer
     product, then inverse columns — all on contiguous slices *)
  let col_re = Array.make my 0.0 in
  let col_im = Array.make my 0.0 in
  for kx = 0 to hx - 1 do
    let off = kx * my in
    Array.blit g_re off col_re 0 my;
    Array.blit g_im off col_im 0 my;
    Fft.fft ~re:col_re ~im:col_im;
    for ky = 0 to my - 1 do
      let k = t.b_k.(off + ky) in
      col_re.(ky) <- col_re.(ky) *. k;
      col_im.(ky) <- col_im.(ky) *. k
    done;
    Fft.ifft ~re:col_re ~im:col_im;
    Array.blit col_re 0 g_re off my;
    Array.blit col_im 0 g_im off my
  done;
  (* inverse rows, again two at a time: each output row has a
     row-Hermitian spectrum H(mx-kx, y) = conj(H(kx, y)), so
     C = H(., y0) + i H(., y1) inverts to h_y0 + i h_y1 with both rows
     real. Only the die's own block is needed: logical row y is extension
     row y, its x-samples extension columns 0..nx-1. *)
  let y = ref 0 in
  while !y < ny do
    let y0 = !y and y1 = !y + 1 in
    for kx = 0 to hx - 1 do
      let h0r = g_re.((kx * my) + y0) and h0i = g_im.((kx * my) + y0) in
      let h1r, h1i =
        if y1 < ny then (g_re.((kx * my) + y1), g_im.((kx * my) + y1))
        else (0.0, 0.0)
      in
      row_re.(kx) <- h0r -. h1i;
      row_im.(kx) <- h0i +. h1r;
      if kx > 0 && kx < mx - kx then begin
        (* mirror index mx - kx: conj(H0) + i conj(H1) *)
        row_re.(mx - kx) <- h0r +. h1i;
        row_im.(mx - kx) <- -.h0i +. h1r
      end
    done;
    Fft.ifft ~re:row_re ~im:row_im;
    for ix = 0 to nx - 1 do
      emit ~ix ~iy:y0 row_re.(ix);
      if y1 < ny then emit ~ix ~iy:y1 row_im.(ix)
    done;
    y := !y + 2
  done

let field t ~power =
  let out =
    Geo.Grid.of_function ~nx:t.b_nx ~ny:t.b_ny ~extent:t.b_extent
      ~f:(fun ~ix:_ ~iy:_ -> 0.0)
  in
  convolve t ~power ~emit:(fun ~ix ~iy v -> Geo.Grid.set out ~ix ~iy v);
  out

let peak ?correction t ~power =
  (match correction with
   | Some c ->
     if Geo.Grid.nx c <> t.b_nx || Geo.Grid.ny c <> t.b_ny then
       invalid_arg "Blur.peak: correction grid dimensions mismatch"
   | None -> ());
  let best = ref neg_infinity in
  let emit =
    match correction with
    | None -> fun ~ix:_ ~iy:_ v -> if v > !best then best := v
    | Some c ->
      fun ~ix ~iy v ->
        let v = v +. Geo.Grid.get c ~ix ~iy in
        if v > !best then best := v
  in
  convolve t ~power ~emit;
  !best
