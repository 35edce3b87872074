type net = Netlist.Types.net_id

module B = Netlist.Builder
module K = Celllib.Kind

let inv t a = B.add_gate t K.Inv [| a |]
let buf t a = B.add_gate t K.Buf [| a |]
let and2 t a b = B.add_gate t K.And2 [| a; b |]
let or2 t a b = B.add_gate t K.Or2 [| a; b |]
let xor2 t a b = B.add_gate t K.Xor2 [| a; b |]
let xnor2 t a b = B.add_gate t K.Xnor2 [| a; b |]
let nor2 t a b = B.add_gate t K.Nor2 [| a; b |]
let mux2 t ~a ~b ~sel = B.add_gate t K.Mux2 [| a; b; sel |]

let half_adder t a b = (xor2 t a b, and2 t a b)

let full_adder t a b cin =
  let p = xor2 t a b in
  let sum = xor2 t p cin in
  let g = and2 t a b in
  let pc = and2 t p cin in
  let cout = or2 t g pc in
  (sum, cout)

let reduce op t bus =
  let n = Array.length bus in
  if n = 0 then invalid_arg "Prim.reduce: empty bus";
  (* Balanced tree keeps logic depth logarithmic. *)
  let rec go lo len =
    if len = 1 then bus.(lo)
    else begin
      let half = len / 2 in
      op t (go lo half) (go (lo + half) (len - half))
    end
  in
  go 0 n

let and_reduce t bus = reduce and2 t bus
let or_reduce t bus = reduce or2 t bus
let xor_reduce t bus = reduce xor2 t bus

let mux2_bus t ~a ~b ~sel =
  if Array.length a <> Array.length b then
    invalid_arg "Prim.mux2_bus: width mismatch";
  Array.init (Array.length a) (fun i -> mux2 t ~a:a.(i) ~b:b.(i) ~sel)

let register_bus t bus = Array.map (fun d -> B.add_dff t ~d) bus

let inputs t ~prefix ~width =
  Array.init width (fun i ->
      B.add_input ~name:(Printf.sprintf "%s%d" prefix i) t)

let outputs t bus = Array.iter (B.mark_output t) bus
