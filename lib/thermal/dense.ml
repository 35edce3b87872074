type t = {
  n : int;
  l : float array;  (* lower-triangular factor, row-major *)
}

let dim t = t.n

(* Standard Cholesky: A = L L^T, in-place on a dense copy. *)
let of_stencil m =
  Obs.Trace.with_span "thermal.dense.factorize" @@ fun () ->
  let n = Stencil.dim m in
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    Stencil.iter_row m i ~f:(fun j v -> a.((i * n) + j) <- v)
  done;
  for k = 0 to n - 1 do
    let akk = ref a.((k * n) + k) in
    for p = 0 to k - 1 do
      akk := !akk -. (a.((k * n) + p) *. a.((k * n) + p))
    done;
    if !akk <= 0.0 then failwith "Dense.of_stencil: not positive definite";
    let lkk = sqrt !akk in
    a.((k * n) + k) <- lkk;
    for i = k + 1 to n - 1 do
      let s = ref a.((i * n) + k) in
      for p = 0 to k - 1 do
        s := !s -. (a.((i * n) + p) *. a.((k * n) + p))
      done;
      a.((i * n) + k) <- !s /. lkk
    done
  done;
  { n; l = a }

let solve t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Dense.solve: dimension mismatch";
  let y = Array.copy b in
  (* forward substitution L y = b *)
  for i = 0 to n - 1 do
    let s = ref y.(i) in
    for j = 0 to i - 1 do
      s := !s -. (t.l.((i * n) + j) *. y.(j))
    done;
    y.(i) <- !s /. t.l.((i * n) + i)
  done;
  (* backward substitution L^T x = y *)
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (t.l.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !s /. t.l.((i * n) + i)
  done;
  y
