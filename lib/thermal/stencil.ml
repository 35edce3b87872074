type t = {
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

let create ~nx ~ny ~nz =
  if nx <= 0 || ny <= 0 || nz <= 0 then
    invalid_arg "Stencil.create: non-positive grid dimension";
  let n = nx * ny * nz in
  let zeros () = Array.make n 0.0 in
  { nx; ny; nz; diag = zeros (); west = zeros (); east = zeros ();
    south = zeros (); north = zeros (); below = zeros (); above = zeros () }

let dim t = Array.length t.diag

(* The stored entries of row [i] as (offset, coefficient array) pairs in
   ascending column order; absent neighbours (grid boundary) are left
   out. Among present neighbours the offsets are distinct even when an
   axis has length 1, so a column identifies its entry. *)
let row_entries t i =
  let nxy = t.nx * t.ny in
  let ix = i mod t.nx and iy = i / t.nx mod t.ny and iz = i / nxy in
  List.concat
    [ (if iz > 0 then [ (-nxy, t.below) ] else []);
      (if iy > 0 then [ (-t.nx, t.south) ] else []);
      (if ix > 0 then [ (-1, t.west) ] else []);
      [ (0, t.diag) ];
      (if ix < t.nx - 1 then [ (1, t.east) ] else []);
      (if iy < t.ny - 1 then [ (t.nx, t.north) ] else []);
      (if iz < t.nz - 1 then [ (nxy, t.above) ] else []) ]

let check_row t i what =
  if i < 0 || i >= dim t then invalid_arg (what ^ ": row out of range")

let iter_row t i ~f =
  check_row t i "Stencil.iter_row";
  List.iter (fun (d, a) -> f (i + d) a.(i)) (row_entries t i)

let get t i j =
  check_row t i "Stencil.get";
  match List.find_opt (fun (d, _) -> i + d = j) (row_entries t i) with
  | Some (_, a) -> a.(i)
  | None -> 0.0

let add t i j v =
  check_row t i "Stencil.add";
  match List.find_opt (fun (d, _) -> i + d = j) (row_entries t i) with
  | Some (_, a) -> a.(i) <- a.(i) +. v
  | None -> invalid_arg "Stencil.add: entry outside the 7-point pattern"

(* Unchecked float-array access for the kernels: every vector length is
   validated against [dim] on entry and every index stays inside the grid. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit
  = "%array_unsafe_set"

let check_vectors t x y what =
  let n = dim t in
  if Array.length x <> n || Array.length y <> n then
    invalid_arg (what ^ ": dimension mismatch")

(* y <- A x on the lines [l0, l1) of the grid, a line being one x-row
   (iz, iy) at index iz * ny + iy. Every row adds its terms to 0.0 in
   ascending column order — below, south, west, centre, east, north,
   above — and skips neighbours the grid boundary removes. *)
let mul_lines t x y l0 l1 =
  let nx = t.nx and ny = t.ny and nz = t.nz in
  let nxy = nx * ny in
  let diag = t.diag and west = t.west and east = t.east
  and south = t.south and north = t.north
  and below = t.below and above = t.above in
  for l = l0 to l1 - 1 do
    let iz = l / ny and iy = l mod ny in
    let has_b = iz > 0 and has_s = iy > 0
    and has_n = iy < ny - 1 and has_a = iz < nz - 1 in
    let base = l * nx in
    for i = base to base + nx - 1 do
      let acc = ref 0.0 in
      if has_b then acc := !acc +. (below.!(i) *. x.!(i - nxy));
      if has_s then acc := !acc +. (south.!(i) *. x.!(i - nx));
      if i > base then acc := !acc +. (west.!(i) *. x.!(i - 1));
      acc := !acc +. (diag.!(i) *. x.!(i));
      if i < base + nx - 1 then acc := !acc +. (east.!(i) *. x.!(i + 1));
      if has_n then acc := !acc +. (north.!(i) *. x.!(i + nx));
      if has_a then acc := !acc +. (above.!(i) *. x.!(i + nxy));
      y.!(i) <- !acc
    done
  done

let lines t = t.ny * t.nz

let mul t x y =
  check_vectors t x y "Stencil.mul";
  mul_lines t x y 0 (lines t)

(* Line-chunked SpMV on the domain pool. Each output row is produced by
   exactly one chunk with the same per-row order as [mul], and the chunk
   grid depends only on the grid shape — never on the worker count — so
   the result is bit-identical to [mul] for any pool size. Below
   [par_min_dim] the pool handoff costs more than the multiply, so small
   systems run [mul] directly. *)
let par_chunk_rows = 512
let par_min_dim = 200_000

let mul_par t x y =
  if dim t < par_min_dim then mul t x y
  else begin
    check_vectors t x y "Stencil.mul_par";
    let per = max 1 (par_chunk_rows / t.nx) in
    let total = lines t in
    let chunks = (total + per - 1) / per in
    Parallel.Pool.parallel_for ~chunks (fun c ->
        let l0 = c * per in
        mul_lines t x y l0 (min total (l0 + per)))
  end

(* --- SSOR ------------------------------------------------------------------

   z <- M^-1 r for M = (D/w + L) ((2-w)/w D)^-1 (D/w + U). Row i of the
   forward sweep reads z[i-1], z[i-nx] and z[i-nx*ny]; row i of the
   backward sweep the mirror images. Any visiting order that respects
   those dependencies computes the same bits, so two adjacent x-lines of
   a layer advance together in a skewed wavefront — line y at x next to
   line y+1 at x-1 — which gives the core two independent
   multiply-subtract-divide chains instead of one. *)

(* Forward row: z[i] <- (r[i] - (0 + below + south + west)) * w / d[i]. *)
let[@inline] fwd t ~omega r z ~nxy ~has_b ~has_s ~has_w i =
  let acc = ref 0.0 in
  if has_b then acc := !acc +. (t.below.!(i) *. z.!(i - nxy));
  if has_s then acc := !acc +. (t.south.!(i) *. z.!(i - t.nx));
  if has_w then acc := !acc +. (t.west.!(i) *. z.!(i - 1));
  z.!(i) <- (r.!(i) -. !acc) *. omega /. t.diag.!(i)

(* Backward row, with the ((2-w)/w D) scaling of the forward result
   folded in: z[i] <- (z[i] d[i] s - (0 + above + north + east)) * w /
   d[i]. Row i's scaling only feeds row i, so applying it here rather
   than in a separate pass changes no bits. *)
let[@inline] bwd t ~omega ~s z ~nxy ~has_a ~has_n ~has_e i =
  let acc = ref 0.0 in
  if has_a then acc := !acc +. (t.above.!(i) *. z.!(i + nxy));
  if has_n then acc := !acc +. (t.north.!(i) *. z.!(i + t.nx));
  if has_e then acc := !acc +. (t.east.!(i) *. z.!(i + 1));
  let d = t.diag.!(i) in
  z.!(i) <- ((z.!(i) *. d *. s) -. !acc) *. omega /. d

let forward t ~omega r z =
  let nx = t.nx and ny = t.ny in
  let nxy = nx * ny in
  for iz = 0 to t.nz - 1 do
    let has_b = iz > 0 in
    let pairs = if nx > 1 then ny / 2 else 0 in
    for p = 0 to pairs - 1 do
      (* lines y and y+1: step k computes (k, y) and (k-1, y+1) *)
      let y = 2 * p in
      let b0 = ((iz * ny) + y) * nx in
      let b1 = b0 + nx in
      let has_s0 = y > 0 in
      fwd t ~omega r z ~nxy ~has_b ~has_s:has_s0 ~has_w:false b0;
      for k = 1 to nx - 1 do
        fwd t ~omega r z ~nxy ~has_b ~has_s:has_s0 ~has_w:true (b0 + k);
        fwd t ~omega r z ~nxy ~has_b ~has_s:true ~has_w:(k > 1) (b1 + k - 1)
      done;
      fwd t ~omega r z ~nxy ~has_b ~has_s:true ~has_w:true (b1 + nx - 1)
    done;
    for y = 2 * pairs to ny - 1 do
      let b = ((iz * ny) + y) * nx in
      for k = 0 to nx - 1 do
        fwd t ~omega r z ~nxy ~has_b ~has_s:(y > 0) ~has_w:(k > 0) (b + k)
      done
    done
  done

let backward t ~omega z =
  let nx = t.nx and ny = t.ny and nz = t.nz in
  let nxy = nx * ny in
  let s = (2.0 -. omega) /. omega in
  for iz = nz - 1 downto 0 do
    let has_a = iz < nz - 1 in
    let pairs = if nx > 1 then ny / 2 else 0 in
    (* mirror of [forward]: the unpaired line (if any) is the top one,
       swept first, then pairs (y, y-1) downward *)
    for y = ny - 1 downto 2 * pairs do
      let b = ((iz * ny) + y) * nx in
      for k = nx - 1 downto 0 do
        bwd t ~omega ~s z ~nxy ~has_a ~has_n:(y < ny - 1) ~has_e:(k < nx - 1)
          (b + k)
      done
    done;
    for p = pairs - 1 downto 0 do
      (* lines y+1 and y: step k computes (nx-1-k, y+1) and (nx-k, y) *)
      let y = 2 * p in
      let b0 = ((iz * ny) + y) * nx in
      let b1 = b0 + nx in
      let has_n1 = y + 1 < ny - 1 in
      bwd t ~omega ~s z ~nxy ~has_a ~has_n:has_n1 ~has_e:false (b1 + nx - 1);
      for k = nx - 2 downto 0 do
        bwd t ~omega ~s z ~nxy ~has_a ~has_n:has_n1 ~has_e:true (b1 + k);
        bwd t ~omega ~s z ~nxy ~has_a ~has_n:true ~has_e:(k < nx - 2)
          (b0 + k + 1)
      done;
      bwd t ~omega ~s z ~nxy ~has_a ~has_n:true ~has_e:true b0
    done
  done

let ssor_apply t ~omega r z =
  check_vectors t r z "Stencil.ssor_apply";
  forward t ~omega r z;
  backward t ~omega z
