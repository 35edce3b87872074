module T = Netlist.Types
module K = Celllib.Kind

type t = {
  op : int array;
  ins : int array;
  out : int array;
  slot : int array;
  dff_q : int array;
  dff_d : int array;
  pi : int array;
}

let opcode = function
  | K.Inv -> 0
  | K.Buf -> 1
  | K.Nand2 -> 2
  | K.Nand3 -> 3
  | K.Nor2 -> 4
  | K.Nor3 -> 5
  | K.And2 -> 6
  | K.And3 -> 7
  | K.Or2 -> 8
  | K.Or3 -> 9
  | K.Xor2 -> 10
  | K.Xnor2 -> 11
  | K.Aoi21 -> 12
  | K.Oai21 -> 13
  | K.Mux2 -> 14
  | (K.Dff | K.Filler _) as k ->
    invalid_arg
      (Printf.sprintf "Tape.opcode: %s is not combinational" (K.name k))

(* Pins are combined as 0/1 integers so that no gate branches on its
   input values: those branches are what random stimulus mispredicts. *)
let[@inline] eval_op op a b c =
  let a = Bool.to_int a and b = Bool.to_int b and c = Bool.to_int c in
  let r =
    match op with
    | 0 -> a lxor 1
    | 1 -> a
    | 2 -> (a land b) lxor 1
    | 3 -> (a land b land c) lxor 1
    | 4 -> (a lor b) lxor 1
    | 5 -> (a lor b lor c) lxor 1
    | 6 -> a land b
    | 7 -> a land b land c
    | 8 -> a lor b
    | 9 -> a lor b lor c
    | 10 -> a lxor b
    | 11 -> a lxor b lxor 1
    | 12 -> ((a land b) lor c) lxor 1
    | 13 -> ((a lor b) land c) lxor 1
    | _ -> (a land (c lxor 1)) lor (b land c)
  in
  r = 1

(* Kahn levelization of the combinational cells (flip-flop outputs and
   primary inputs are sources). *)
let topo_order (nl : T.t) =
  let n = T.num_cells nl in
  let comb_driver = Array.make (T.num_nets nl) (-1) in
  T.iter_cells nl ~f:(fun cid c ->
      if not (K.is_sequential c.T.kind) then comb_driver.(c.T.output) <- cid);
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  T.iter_cells nl ~f:(fun cid c ->
      Array.iter
        (fun nid ->
           let src = comb_driver.(nid) in
           if src >= 0 then begin
             succs.(src) <- cid :: succs.(src);
             indeg.(cid) <- indeg.(cid) + 1
           end)
        c.T.inputs);
  let queue = Queue.create () in
  Array.iteri (fun cid d -> if d = 0 then Queue.add cid queue) indeg;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    if not (K.is_sequential (T.cell nl cid).T.kind) then
      order := cid :: !order;
    List.iter
      (fun s ->
         indeg.(s) <- indeg.(s) - 1;
         if indeg.(s) = 0 then Queue.add s queue)
      succs.(cid)
  done;
  Array.of_list (List.rev !order)

let check_cell nl cid (c : T.cell) =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
         invalid_arg (Printf.sprintf "Tape.compile: cell %d (%s): %s" cid
                        (K.name c.T.kind) msg))
      fmt
  in
  if K.is_filler c.T.kind then bad "filler cells have no function";
  let arity = K.num_inputs c.T.kind in
  if Array.length c.T.inputs <> arity then
    bad "expected %d inputs, got %d" arity (Array.length c.T.inputs);
  let nets = T.num_nets nl in
  Array.iter
    (fun nid -> if nid < 0 || nid >= nets then bad "net %d out of range" nid)
    (Array.append [| c.T.output |] c.T.inputs)

let compile nl =
  T.iter_cells nl ~f:(check_cell nl);
  let order = topo_order nl in
  let n = Array.length order in
  let n_comb =
    T.fold_cells nl ~init:0 ~f:(fun acc _ c ->
        if K.is_sequential c.T.kind then acc else acc + 1)
  in
  if n <> n_comb then
    invalid_arg
      (Printf.sprintf "Tape.compile: combinational loop through %d cells"
         (n_comb - n));
  (* Levelize: within one logic level no gate reads another, so the
     level's gates may run in any order, and grouping them by opcode turns
     the per-gate dispatch into long runs the branch predictor follows. *)
  let level = Array.make (T.num_nets nl) 0 in
  let key = Array.make (T.num_cells nl) 0 in
  Array.iter
    (fun cid ->
       let c = T.cell nl cid in
       let l =
         1 + Array.fold_left (fun m nid -> max m level.(nid)) 0 c.T.inputs
       in
       level.(c.T.output) <- l;
       key.(cid) <- (l lsl 4) lor opcode c.T.kind)
    order;
  Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) order;
  let slot = Array.make (T.num_cells nl) (-1) in
  let op = Array.make n 0 and ins = Array.make (3 * n) 0 in
  let out = Array.make n 0 in
  Array.iteri
    (fun s cid ->
       let c = T.cell nl cid in
       slot.(cid) <- s;
       op.(s) <- opcode c.T.kind;
       out.(s) <- c.T.output;
       for p = 0 to 2 do
         let pin = if p < Array.length c.T.inputs then p else 0 in
         ins.((3 * s) + p) <- c.T.inputs.(pin)
       done)
    order;
  let dffs =
    List.rev
      (T.fold_cells nl ~init:[] ~f:(fun acc _ c ->
           if K.is_sequential c.T.kind then c :: acc else acc))
    |> Array.of_list
  in
  { op;
    ins;
    out;
    slot;
    dff_q = Array.map (fun c -> c.T.output) dffs;
    dff_d = Array.map (fun c -> c.T.inputs.(0)) dffs;
    pi = Array.copy nl.T.primary_inputs }

let[@inline] eval t values s =
  let i = 3 * s in
  eval_op t.op.(s)
    values.(t.ins.(i))
    values.(t.ins.(i + 1))
    values.(t.ins.(i + 2))

let propagate t values ~changed =
  for s = 0 to Array.length t.op - 1 do
    let v = eval t values s and o = t.out.(s) in
    if values.(o) <> v then begin
      values.(o) <- v;
      changed o v
    end
  done

let settled_values t nl =
  let values = Array.make (T.num_nets nl) false in
  T.iter_nets nl ~f:(fun nid n ->
      match n.T.driver with
      | T.Constant v -> values.(nid) <- v
      | T.Primary_input _ | T.Cell_output _ -> ());
  propagate t values ~changed:(fun _ _ -> ());
  values
