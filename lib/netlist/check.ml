type issue =
  | Arity_mismatch of Types.cell_id
  | Driver_inconsistent of Types.net_id
  | Dangling_net of Types.net_id
  | Floating_net of Types.net_id

let run (nl : Types.t) =
  let issues = ref [] in
  let report i = issues := i :: !issues in
  Types.iter_cells nl ~f:(fun cid c ->
      if Array.length c.Types.inputs <> Celllib.Kind.num_inputs c.Types.kind
      then report (Arity_mismatch cid));
  let is_po = Array.make (Types.num_nets nl) false in
  Array.iter (fun nid -> is_po.(nid) <- true) nl.Types.primary_outputs;
  Types.iter_nets nl ~f:(fun nid n ->
      begin match n.Types.driver with
      | Types.Cell_output cid ->
        if cid < 0 || cid >= Types.num_cells nl
        || (Types.cell nl cid).Types.output <> nid
        then report (Driver_inconsistent nid)
      | Types.Primary_input k ->
        if k < 0 || k >= Types.num_primary_inputs nl
        || nl.Types.primary_inputs.(k) <> nid
        then report (Driver_inconsistent nid)
      | Types.Constant _ -> ()
      end;
      let floating =
        Array.length n.Types.sinks = 0 && not is_po.(nid)
        && (match n.Types.driver with Types.Constant _ -> false | _ -> true)
      in
      if floating then report (Floating_net nid));
  List.rev !issues

let is_well_formed nl =
  List.for_all
    (function
      | Floating_net _ -> true
      | Arity_mismatch _ | Driver_inconsistent _ | Dangling_net _ -> false)
    (run nl)
