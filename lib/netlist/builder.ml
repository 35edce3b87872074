type pending_net = {
  mutable p_name : string;
  mutable p_driver : Types.driver option;
}

type t = {
  mutable cells : Types.cell array;
  mutable n_cells : int;
  mutable nets : pending_net array;
  mutable n_nets : int;
  mutable pis : Types.net_id list;   (* reversed *)
  mutable pi_tags : int list;        (* reversed, aligned with pis *)
  mutable pos : Types.net_id list;   (* reversed *)
  mutable tag : int;
  mutable const_true : Types.net_id option;
  mutable const_false : Types.net_id option;
}

let dummy_cell : Types.cell =
  { kind = Celllib.Kind.Inv; cell_name = ""; inputs = [||]; output = 0;
    unit_tag = -1 }

let create () =
  { cells = Array.make 64 dummy_cell; n_cells = 0;
    nets = [||]; n_nets = 0;
    pis = []; pi_tags = []; pos = []; tag = -1;
    const_true = None; const_false = None }

let set_unit_tag t tag = t.tag <- tag

let grow_cells t =
  if t.n_cells = Array.length t.cells then begin
    let bigger = Array.make (2 * max 1 (Array.length t.cells)) dummy_cell in
    Array.blit t.cells 0 bigger 0 t.n_cells;
    t.cells <- bigger
  end

let grow_nets t =
  if t.n_nets = Array.length t.nets then begin
    let fresh = Array.init (2 * max 64 (Array.length t.nets))
        (fun _ -> { p_name = ""; p_driver = None }) in
    Array.blit t.nets 0 fresh 0 t.n_nets;
    t.nets <- fresh
  end

let fresh_net t name =
  grow_nets t;
  let id = t.n_nets in
  t.nets.(id) <- { p_name = name; p_driver = None };
  t.n_nets <- id + 1;
  id

let add_input ?name t =
  let id = fresh_net t "" in
  let name = match name with Some n -> n | None -> Printf.sprintf "pi%d" id in
  t.nets.(id).p_name <- name;
  t.nets.(id).p_driver <- Some (Types.Primary_input (List.length t.pis));
  t.pis <- id :: t.pis;
  t.pi_tags <- t.tag :: t.pi_tags;
  id

let add_constant t value =
  let cached = if value then t.const_true else t.const_false in
  match cached with
  | Some id -> id
  | None ->
    let id = fresh_net t (if value then "const1" else "const0") in
    t.nets.(id).p_driver <- Some (Types.Constant value);
    if value then t.const_true <- Some id else t.const_false <- Some id;
    id

let check_net_exists t ctx id =
  if id < 0 || id >= t.n_nets then
    invalid_arg (Printf.sprintf "Builder.%s: dangling net id %d" ctx id)

let add_cell_unchecked t kind name inputs =
  grow_cells t;
  let cid = t.n_cells in
  let out = fresh_net t "" in
  let name =
    match name with Some n -> n | None ->
      Printf.sprintf "u%d_%s" cid (Celllib.Kind.name kind)
  in
  t.nets.(out).p_name <- name ^ "_o";
  t.nets.(out).p_driver <- Some (Types.Cell_output cid);
  t.cells.(cid) <-
    { Types.kind; cell_name = name; inputs = Array.copy inputs;
      output = out; unit_tag = t.tag };
  t.n_cells <- cid + 1;
  out

let add_cell t kind name inputs =
  Array.iter (check_net_exists t "add_cell") inputs;
  add_cell_unchecked t kind name inputs

let add_gate ?name t kind inputs =
  if Celllib.Kind.is_sequential kind then
    invalid_arg "Builder.add_gate: use add_dff for sequential cells";
  if Celllib.Kind.is_filler kind then
    invalid_arg "Builder.add_gate: fillers are placement-only objects";
  if Array.length inputs <> Celllib.Kind.num_inputs kind then
    invalid_arg
      (Printf.sprintf "Builder.add_gate %s: expected %d inputs, got %d"
         (Celllib.Kind.name kind) (Celllib.Kind.num_inputs kind)
         (Array.length inputs));
  add_cell t kind name inputs

let add_dff ?name t ~d =
  check_net_exists t "add_dff" d;
  add_cell t Celllib.Kind.Dff name [| d |]

let add_dff_feedback ?name t =
  let q = add_cell_unchecked t Celllib.Kind.Dff name [| -1 |] in
  let cid = t.n_cells - 1 in
  let connected = ref false in
  let connect d =
    if !connected then
      invalid_arg "Builder.add_dff_feedback: D already connected";
    check_net_exists t "add_dff_feedback" d;
    (t.cells.(cid)).Types.inputs.(0) <- d;
    connected := true
  in
  (q, connect)

let mark_output t id =
  check_net_exists t "mark_output" id;
  if not (List.mem id t.pos) then t.pos <- id :: t.pos

let num_cells t = t.n_cells
let num_nets t = t.n_nets

(* Kahn topological check over the combinational graph: an edge goes from a
   cell's input net driver to the cell, but flip-flop outputs are sources. *)
let check_acyclic (cells : Types.cell array) n_nets =
  let n = Array.length cells in
  let indeg = Array.make n 0 in
  let net_driver = Array.make n_nets (-1) in
  Array.iteri
    (fun cid (c : Types.cell) ->
       if not (Celllib.Kind.is_sequential c.kind) then
         net_driver.(c.output) <- cid)
    cells;
  let succs = Array.make n [] in
  Array.iteri
    (fun cid (c : Types.cell) ->
       Array.iter
         (fun nid ->
            let src = net_driver.(nid) in
            if src >= 0 then begin
              succs.(src) <- cid :: succs.(src);
              indeg.(cid) <- indeg.(cid) + 1
            end)
         c.inputs)
    cells;
  let queue = Queue.create () in
  Array.iteri (fun cid d -> if d = 0 then Queue.add cid queue) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    incr visited;
    List.iter
      (fun s ->
         indeg.(s) <- indeg.(s) - 1;
         if indeg.(s) = 0 then Queue.add s queue)
      succs.(cid)
  done;
  if !visited <> n then failwith "Builder.finish: combinational cycle detected"

let finish t =
  let cells = Array.sub t.cells 0 t.n_cells in
  Array.iteri
    (fun cid (c : Types.cell) ->
       Array.iter
         (fun nid ->
            if nid < 0 then
              failwith
                (Printf.sprintf
                   "Builder.finish: cell %d (%s) has an unconnected pin"
                   cid c.Types.cell_name))
         c.Types.inputs)
    cells;
  let sink_lists = Array.make t.n_nets [] in
  Array.iteri
    (fun cid (c : Types.cell) ->
       Array.iteri
         (fun pin nid -> sink_lists.(nid) <- (cid, pin) :: sink_lists.(nid))
         c.inputs)
    cells;
  let nets =
    Array.init t.n_nets (fun nid ->
        let p = t.nets.(nid) in
        let driver =
          match p.p_driver with
          | Some d -> d
          | None ->
            failwith (Printf.sprintf "Builder.finish: net %d (%s) undriven"
                        nid p.p_name)
        in
        { Types.net_name = p.p_name; driver;
          sinks = Array.of_list (List.rev sink_lists.(nid)) })
  in
  check_acyclic cells t.n_nets;
  { Types.cells; nets;
    primary_inputs = Array.of_list (List.rev t.pis);
    primary_outputs = Array.of_list (List.rev t.pos);
    pi_tags = Array.of_list (List.rev t.pi_tags) }
