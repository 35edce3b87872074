(* Tests for the cycle-based simulator, workloads, activity measurement and
   the probabilistic transition-density engine. *)

module B = Netlist.Builder
module K = Celllib.Kind

let test_comb_propagation_one_step () =
  let b = B.create () in
  let a = B.add_input b in
  let n1 = B.add_gate b K.Inv [| a |] in
  let n2 = B.add_gate b K.Inv [| n1 |] in
  let n3 = B.add_gate b K.Inv [| n2 |] in
  B.mark_output b n3;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "inv chain in one cycle" false
    (Logicsim.Sim.value sim n3);
  Logicsim.Sim.set_input sim 0 false;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "flips back" true (Logicsim.Sim.value sim n3)

let test_dff_one_cycle_delay () =
  let b = B.create () in
  let a = B.add_input b in
  let q = B.add_dff b ~d:a in
  B.mark_output b q;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "q still 0 in capture cycle" false
    (Logicsim.Sim.value sim q);
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "q is 1 next cycle" true (Logicsim.Sim.value sim q)

let test_dff_pipeline_depth () =
  let b = B.create () in
  let a = B.add_input b in
  let q1 = B.add_dff b ~d:a in
  let q2 = B.add_dff b ~d:q1 in
  let q3 = B.add_dff b ~d:q2 in
  B.mark_output b q3;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Logicsim.Sim.step sim;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "3-stage pipe not yet" false
    (Logicsim.Sim.value sim q3);
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "arrives cycle 4" true (Logicsim.Sim.value sim q3)

let test_constants_hold () =
  let b = B.create () in
  let one = B.add_constant b true in
  let zero = B.add_constant b false in
  let n = B.add_gate b K.And2 [| one; zero |] in
  B.mark_output b n;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "one" true (Logicsim.Sim.value sim one);
  Alcotest.(check bool) "zero" false (Logicsim.Sim.value sim zero);
  Alcotest.(check int) "constants never toggle" 0
    (Logicsim.Sim.toggles sim one)

let test_toggle_counting () =
  let b = B.create () in
  let a = B.add_input b in
  let n = B.add_gate b K.Buf [| a |] in
  B.mark_output b n;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  for k = 1 to 6 do
    Logicsim.Sim.set_input sim 0 (k mod 2 = 1);
    Logicsim.Sim.step sim
  done;
  Alcotest.(check int) "pi toggles" 6 (Logicsim.Sim.toggles sim 0);
  Alcotest.(check int) "buf follows" 6 (Logicsim.Sim.toggles sim n);
  Alcotest.(check int) "cycles" 6 (Logicsim.Sim.cycles sim);
  Logicsim.Sim.reset_counters sim;
  Alcotest.(check int) "reset toggles" 0 (Logicsim.Sim.toggles sim 0);
  Alcotest.(check int) "reset cycles" 0 (Logicsim.Sim.cycles sim);
  Alcotest.(check bool) "state survives reset" true
    (Logicsim.Sim.value sim 0 = Logicsim.Sim.value sim n)

let test_ones_counting () =
  let b = B.create () in
  let a = B.add_input b in
  let n = B.add_gate b K.Inv [| a |] in
  B.mark_output b n;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Logicsim.Sim.step sim;
  Logicsim.Sim.set_input sim 0 false;
  Logicsim.Sim.step sim;
  Alcotest.(check int) "pi ones" 2 (Logicsim.Sim.ones sim 0);
  Alcotest.(check int) "inv ones" 1 (Logicsim.Sim.ones sim n)

(* --- workloads ----------------------------------------------------------- *)

let test_workload_activity () =
  let w = Logicsim.Workload.make ~default:0.1 ~hot:[ (2, 0.9) ] in
  Alcotest.(check (float 1e-9)) "hot" 0.9
    (Logicsim.Workload.activity w ~tag:2);
  Alcotest.(check (float 1e-9)) "cold" 0.1
    (Logicsim.Workload.activity w ~tag:0);
  Alcotest.(check (float 1e-9)) "untagged uses default" 0.1
    (Logicsim.Workload.activity w ~tag:(-1))

let test_workload_validation () =
  (match Logicsim.Workload.uniform 1.5 with
   | _ -> Alcotest.fail "p>1 accepted"
   | exception Invalid_argument _ -> ());
  (match Logicsim.Workload.make ~default:0.5 ~hot:[ (0, -0.1) ] with
   | _ -> Alcotest.fail "p<0 accepted"
   | exception Invalid_argument _ -> ())

let test_workload_shapes () =
  let s = Logicsim.Workload.scattered_hotspots ~hot_units:[ 1; 3 ] in
  Alcotest.(check bool) "hot unit high" true
    (Logicsim.Workload.activity s ~tag:1 > 0.4);
  Alcotest.(check bool) "cold unit low" true
    (Logicsim.Workload.activity s ~tag:0 < 0.05);
  let c = Logicsim.Workload.concentrated_hotspot ~hot_unit:7 in
  Alcotest.(check bool) "concentrated hot" true
    (Logicsim.Workload.activity c ~tag:7 > 0.4)

let test_workload_zero_activity_settles () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  let w = Logicsim.Workload.uniform 0.0 in
  let rng = Geo.Rng.create 1 in
  (* settle, then measure: with frozen inputs nothing may toggle *)
  Logicsim.Workload.run w sim rng ~cycles:8;
  Logicsim.Sim.reset_counters sim;
  Logicsim.Workload.run w sim rng ~cycles:20;
  let total = ref 0 in
  for nid = 0 to Netlist.Types.num_nets nl - 1 do
    total := !total + Logicsim.Sim.toggles sim nid
  done;
  Alcotest.(check int) "no toggles at zero activity" 0 !total

let test_workload_full_activity () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  let w = Logicsim.Workload.uniform 1.0 in
  let rng = Geo.Rng.create 1 in
  Logicsim.Workload.run w sim rng ~cycles:10;
  Array.iter
    (fun nid ->
       Alcotest.(check int)
         (Printf.sprintf "pi %d toggles every cycle" nid)
         10
         (Logicsim.Sim.toggles sim nid))
    nl.Netlist.Types.primary_inputs

(* --- activity measurement ------------------------------------------------ *)

let test_activity_measure () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  let w = Logicsim.Workload.uniform 0.4 in
  let rng = Geo.Rng.create 5 in
  let r = Logicsim.Activity.measure sim w rng ~warmup:16 ~cycles:600 in
  Alcotest.(check int) "cycles recorded" 600
    r.Logicsim.Activity.measured_cycles;
  Array.iter
    (fun rate ->
       if rate < 0.0 || rate > 1.0 then
         Alcotest.failf "toggle rate %g out of [0,1]" rate)
    r.Logicsim.Activity.toggle_rate;
  (* primary-input rates concentrate around the workload probability *)
  let pi_rates =
    Array.map
      (fun nid -> r.Logicsim.Activity.toggle_rate.(nid))
      nl.Netlist.Types.primary_inputs
  in
  let mean = Geo.Stats.mean pi_rates in
  if Float.abs (mean -. 0.4) > 0.05 then
    Alcotest.failf "mean PI rate %.3f far from 0.4" mean

let test_activity_requires_cycles () =
  let bench = Netgen.Benchmark.small () in
  let sim = Logicsim.Sim.create bench.Netgen.Benchmark.netlist in
  (match
     Logicsim.Activity.measure sim (Logicsim.Workload.uniform 0.1)
       (Geo.Rng.create 1) ~warmup:0 ~cycles:0
   with
   | _ -> Alcotest.fail "cycles=0 accepted"
   | exception Invalid_argument _ -> ())

let test_activity_constant_rate () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let r = Logicsim.Activity.of_constant_rate nl ~rate:0.25 in
  Alcotest.(check (float 1e-9)) "rate" 0.25
    r.Logicsim.Activity.toggle_rate.(0);
  Alcotest.(check int) "length" (Netlist.Types.num_nets nl)
    (Array.length r.Logicsim.Activity.toggle_rate)

(* --- density engine ------------------------------------------------------- *)

let density_of_gate kind input_densities =
  let b = B.create () in
  let pis = Array.map (fun _ -> B.add_input b) input_densities in
  let n = B.add_gate b kind pis in
  B.mark_output b n;
  let nl = B.finish b in
  let est =
    Logicsim.Density.propagate nl
      ~input_density:(fun k -> input_densities.(k)) ()
  in
  (est.Logicsim.Density.prob.(n), est.Logicsim.Density.density.(n))

let test_density_gate_formulas () =
  let p, d = density_of_gate K.And2 [| 0.2; 0.4 |] in
  Alcotest.(check (float 1e-9)) "and2 prob" 0.25 p;
  (* D = pb*Da + pa*Db with pa=pb=0.5 *)
  Alcotest.(check (float 1e-9)) "and2 density" 0.3 d;
  let p, d = density_of_gate K.Xor2 [| 0.2; 0.4 |] in
  Alcotest.(check (float 1e-9)) "xor2 prob" 0.5 p;
  Alcotest.(check (float 1e-9)) "xor2 density" 0.6 d;
  let p, d = density_of_gate K.Inv [| 0.3 |] in
  Alcotest.(check (float 1e-9)) "inv prob" 0.5 p;
  Alcotest.(check (float 1e-9)) "inv density" 0.3 d

let test_density_clamped () =
  let _, d = density_of_gate K.Xor2 [| 0.9; 0.9 |] in
  Alcotest.(check bool) "density clamped to 1" true (d <= 1.0)

let test_density_vs_simulation () =
  (* The analytical estimate should track simulation on the small benchmark
     within a loose tolerance (reconvergence causes known error). *)
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let w = Logicsim.Workload.uniform 0.3 in
  let sim = Logicsim.Sim.create nl in
  let measured =
    Logicsim.Activity.measure sim w (Geo.Rng.create 9) ~warmup:32
      ~cycles:1500
  in
  let est = Logicsim.Density.of_workload nl w in
  let err = ref 0.0 and n = ref 0 in
  Netlist.Types.iter_nets nl ~f:(fun nid _ ->
      err :=
        !err
        +. Float.abs
             (measured.Logicsim.Activity.toggle_rate.(nid)
              -. est.Logicsim.Density.density.(nid));
      incr n);
  let mae = !err /. float_of_int !n in
  (* reconvergent fan-out in the arithmetic arrays makes the independence
     assumption optimistic; 0.2 toggles/cycle MAE is the documented
     accuracy envelope of the analytical engine *)
  if mae > 0.2 then
    Alcotest.failf "density MAE %.3f too large vs simulation" mae

let test_density_constants () =
  let b = B.create () in
  let one = B.add_constant b true in
  let a = B.add_input b in
  let n = B.add_gate b K.And2 [| one; a |] in
  B.mark_output b n;
  let nl = B.finish b in
  let est = Logicsim.Density.propagate nl ~input_density:(fun _ -> 0.4) () in
  Alcotest.(check (float 1e-9)) "const prob" 1.0
    est.Logicsim.Density.prob.(one);
  Alcotest.(check (float 1e-9)) "const density" 0.0
    est.Logicsim.Density.density.(one);
  (* and with constant 1 is transparent *)
  Alcotest.(check (float 1e-9)) "through-and density" 0.4
    est.Logicsim.Density.density.(n)

(* --- event-driven engine ---------------------------------------------------- *)

(* XOR of a signal with a doubly-inverted copy of itself: statically always
   0, but under unit delay each input toggle produces a glitch pulse. *)
let glitch_circuit () =
  let b = B.create () in
  let a = B.add_input b in
  let d1 = B.add_gate b K.Inv [| a |] in
  let d2 = B.add_gate b K.Inv [| d1 |] in
  let out = B.add_gate b K.Xor2 [| a; d2 |] in
  B.mark_output b out;
  (B.finish b, out)

let test_event_sim_sees_glitches () =
  let nl, out = glitch_circuit () in
  let zsim = Logicsim.Sim.create nl in
  let esim = Logicsim.Event_sim.create nl in
  for k = 1 to 10 do
    let v = k mod 2 = 1 in
    Logicsim.Sim.set_input zsim 0 v;
    Logicsim.Event_sim.set_input esim 0 v;
    Logicsim.Sim.step zsim;
    Logicsim.Event_sim.step esim
  done;
  Alcotest.(check int) "zero-delay sees no output toggles" 0
    (Logicsim.Sim.toggles zsim out);
  (* each of the 10 input toggles produces one 2-transition glitch pulse *)
  Alcotest.(check int) "event engine counts the glitches" 20
    (Logicsim.Event_sim.toggles esim out)

let test_event_sim_settled_values_match_sim () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let zsim = Logicsim.Sim.create nl in
  let esim = Logicsim.Event_sim.create nl in
  let rng = Geo.Rng.create 17 in
  for _cycle = 1 to 40 do
    for k = 0 to Netlist.Types.num_primary_inputs nl - 1 do
      if Geo.Rng.bernoulli rng 0.4 then begin
        let v = not (Logicsim.Sim.input_value zsim k) in
        Logicsim.Sim.set_input zsim k v;
        Logicsim.Event_sim.set_input esim k v
      end
    done;
    Logicsim.Sim.step zsim;
    Logicsim.Event_sim.step esim;
    Netlist.Types.iter_nets nl ~f:(fun nid _ ->
        if Logicsim.Sim.value zsim nid
           <> Logicsim.Event_sim.value esim nid
        then
          Alcotest.failf "cycle values diverge on net %d" nid)
  done

let test_event_sim_toggles_dominate () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let zsim = Logicsim.Sim.create nl in
  let esim = Logicsim.Event_sim.create nl in
  let rng = Geo.Rng.create 23 in
  for _ = 1 to 60 do
    for k = 0 to Netlist.Types.num_primary_inputs nl - 1 do
      if Geo.Rng.bernoulli rng 0.3 then begin
        let v = not (Logicsim.Sim.input_value zsim k) in
        Logicsim.Sim.set_input zsim k v;
        Logicsim.Event_sim.set_input esim k v
      end
    done;
    Logicsim.Sim.step zsim;
    Logicsim.Event_sim.step esim
  done;
  let total_z = ref 0 and total_e = ref 0 in
  Netlist.Types.iter_nets nl ~f:(fun nid _ ->
      let z = Logicsim.Sim.toggles zsim nid in
      let e = Logicsim.Event_sim.toggles esim nid in
      if e < z then
        Alcotest.failf "net %d: event toggles %d < zero-delay %d" nid e z;
      total_z := !total_z + z;
      total_e := !total_e + e);
  Alcotest.(check bool) "arithmetic logic glitches measurably" true
    (!total_e > !total_z)

let test_event_sim_settle_depth_bounded () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let depth = Netlist.Stats.logic_depth nl in
  let esim = Logicsim.Event_sim.create nl in
  let w = Logicsim.Workload.uniform 0.5 in
  let rng = Geo.Rng.create 31 in
  let report = Logicsim.Event_sim.measure esim w rng ~warmup:4 ~cycles:20 in
  Alcotest.(check int) "cycles measured" 20
    report.Logicsim.Activity.measured_cycles;
  Alcotest.(check bool)
    (Printf.sprintf "settles within depth+2 waves (%d <= %d)"
       (Logicsim.Event_sim.last_settle_waves esim) (depth + 2))
    true
    (Logicsim.Event_sim.last_settle_waves esim <= depth + 2)

let test_event_sim_rates_can_exceed_one () =
  let nl, out = glitch_circuit () in
  let esim = Logicsim.Event_sim.create nl in
  let w = Logicsim.Workload.uniform 1.0 in
  let rng = Geo.Rng.create 3 in
  let report = Logicsim.Event_sim.measure esim w rng ~warmup:2 ~cycles:50 in
  Alcotest.(check bool) "glitchy net above 1 toggle/cycle" true
    (report.Logicsim.Activity.toggle_rate.(out) > 1.0)

(* --- compiled tape ------------------------------------------------------------- *)

module T = Netlist.Types

let comb_kinds = List.filter (fun k -> not (K.is_sequential k)) K.all_logic

let test_tape_truth_tables () =
  let ops = List.map Logicsim.Tape.opcode comb_kinds in
  Alcotest.(check int) "one opcode per kind" (List.length comb_kinds)
    (List.length (List.sort_uniq compare ops));
  List.iter2
    (fun k op ->
       (* all eight pin patterns: pins beyond the arity must be ignored *)
       for bits = 0 to 7 do
         let pins = Array.init 3 (fun p -> bits land (1 lsl p) <> 0) in
         let want = K.eval k (Array.sub pins 0 (K.num_inputs k)) in
         if Logicsim.Tape.eval_op op pins.(0) pins.(1) pins.(2) <> want then
           Alcotest.failf "%s on pins %d: tape disagrees with Kind.eval"
             (K.name k) bits
       done)
    comb_kinds ops;
  List.iter
    (fun k ->
       match Logicsim.Tape.opcode k with
       | _ -> Alcotest.failf "%s got an opcode" (K.name k)
       | exception Invalid_argument _ -> ())
    [ K.Dff; K.Filler 4 ]

(* A hand-assembled netlist bypassing the builder's checks: net 0 is a
   primary input, every cell drives the next net. *)
let raw_netlist cells =
  let n_nets = 1 + List.length cells in
  let cells =
    List.mapi
      (fun i (kind, inputs) ->
         { T.kind; cell_name = Printf.sprintf "c%d" i; inputs;
           output = i + 1; unit_tag = -1 })
      cells
    |> Array.of_list
  in
  let pins =
    List.concat
      (List.mapi
         (fun cid c -> List.mapi (fun pin n -> (n, (cid, pin)))
             (Array.to_list c.T.inputs))
         (Array.to_list cells))
  in
  let sinks nid =
    Array.of_list
      (List.filter_map (fun (n, s) -> if n = nid then Some s else None) pins)
  in
  { T.cells;
    nets =
      Array.init n_nets (fun nid ->
          { T.net_name = Printf.sprintf "n%d" nid;
            driver = (if nid = 0 then T.Primary_input 0 else T.Cell_output (nid - 1));
            sinks = sinks nid });
    primary_inputs = [| 0 |];
    primary_outputs = [| n_nets - 1 |];
    pi_tags = [| -1 |] }

let test_tape_rejects_malformed () =
  let cases =
    [ ("arity mismatch", [ (K.And2, [| 0 |]) ]);
      ("filler in the tape", [ (K.Filler 4, [||]) ]);
      ("dff without D", [ (K.Dff, [||]) ]);
      ("dff with two pins", [ (K.Dff, [| 0; 0 |]) ]);
      ("net out of range", [ (K.Inv, [| 7 |]) ]);
      ("combinational loop", [ (K.Inv, [| 2 |]); (K.Inv, [| 1 |]) ]) ]
  in
  List.iter
    (fun (what, cells) ->
       let nl = raw_netlist cells in
       (match Logicsim.Sim.create nl with
        | _ -> Alcotest.failf "Sim.create accepted: %s" what
        | exception Invalid_argument _ -> ());
       match Logicsim.Event_sim.create nl with
       | _ -> Alcotest.failf "Event_sim.create accepted: %s" what
       | exception Invalid_argument _ -> ())
    cases;
  (* the well-formed control case compiles and steps *)
  let sim = Logicsim.Sim.create (raw_netlist [ (K.Inv, [| 0 |]) ]) in
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "control inverts" true (Logicsim.Sim.value sim 1)

(* Cell 0 reads the net cell 1 drives, so cell-id order is not
   topological: settling must follow the tape's levelized order. *)
let test_event_sim_settles_in_tape_order () =
  let nl = raw_netlist [ (K.Inv, [| 2 |]); (K.Inv, [| 0 |]) ] in
  let esim = Logicsim.Event_sim.create nl in
  let zsim = Logicsim.Sim.create nl in
  Logicsim.Event_sim.step esim;
  Logicsim.Sim.step zsim;
  Alcotest.(check bool) "double inversion of 0" false
    (Logicsim.Event_sim.value esim 1);
  Alcotest.(check bool) "agrees with Sim" (Logicsim.Sim.value zsim 1)
    (Logicsim.Event_sim.value esim 1)

(* Test-only reference: the cycle engine before the netlist was compiled
   to a tape — per-cell Kind.eval over a freshly mapped input array, in a
   depth-first topological order (independent of the tape's Kahn
   levelization), with ones sampled by a full scan every cycle. *)
module Ref_sim = struct
  type t = {
    nl : T.t;
    order : T.cell_id array;
    values : bool array;
    staged : bool array;
    dff_state : bool array;
    toggle_count : int array;
    ones_count : int array;
    mutable n_cycles : int;
  }

  let order nl =
    let seen = Array.make (T.num_cells nl) false and acc = ref [] in
    let rec visit cid =
      if not seen.(cid) then begin
        seen.(cid) <- true;
        let c = T.cell nl cid in
        if not (K.is_sequential c.T.kind) then begin
          Array.iter
            (fun nid ->
               match (T.net nl nid).T.driver with
               | T.Cell_output d -> visit d
               | T.Primary_input _ | T.Constant _ -> ())
            c.T.inputs;
          acc := cid :: !acc
        end
      end
    in
    T.iter_cells nl ~f:(fun cid _ -> visit cid);
    Array.of_list (List.rev !acc)

  let eval t cid =
    let c = T.cell t.nl cid in
    K.eval c.T.kind (Array.map (fun nid -> t.values.(nid)) c.T.inputs)

  let create nl =
    let values = Array.make (T.num_nets nl) false in
    T.iter_nets nl ~f:(fun nid n ->
        match n.T.driver with
        | T.Constant v -> values.(nid) <- v
        | T.Primary_input _ | T.Cell_output _ -> ());
    let t =
      { nl; order = order nl; values;
        staged = Array.make (T.num_primary_inputs nl) false;
        dff_state = Array.make (T.num_cells nl) false;
        toggle_count = Array.make (T.num_nets nl) 0;
        ones_count = Array.make (T.num_nets nl) 0;
        n_cycles = 0 }
    in
    Array.iter (fun cid -> values.((T.cell nl cid).T.output) <- eval t cid)
      t.order;
    t

  let update t nid v =
    if t.values.(nid) <> v then begin
      t.values.(nid) <- v;
      t.toggle_count.(nid) <- t.toggle_count.(nid) + 1
    end

  let step t =
    let nl = t.nl in
    T.iter_cells nl ~f:(fun cid c ->
        if K.is_sequential c.T.kind then update t c.T.output t.dff_state.(cid));
    Array.iteri (fun k nid -> update t nid t.staged.(k)) nl.T.primary_inputs;
    Array.iter (fun cid -> update t (T.cell nl cid).T.output (eval t cid))
      t.order;
    T.iter_cells nl ~f:(fun cid c ->
        if K.is_sequential c.T.kind then
          t.dff_state.(cid) <- t.values.(c.T.inputs.(0)));
    Array.iteri
      (fun nid v -> if v then t.ones_count.(nid) <- t.ones_count.(nid) + 1)
      t.values;
    t.n_cycles <- t.n_cycles + 1

  let reset_counters t =
    Array.fill t.toggle_count 0 (Array.length t.toggle_count) 0;
    Array.fill t.ones_count 0 (Array.length t.ones_count) 0;
    t.n_cycles <- 0
end

let first_difference sim (r : Ref_sim.t) =
  let module S = Logicsim.Sim in
  if S.cycles sim <> r.Ref_sim.n_cycles then
    Some (Printf.sprintf "cycles %d vs %d" (S.cycles sim) r.Ref_sim.n_cycles)
  else
    let diff = ref None in
    T.iter_nets r.Ref_sim.nl ~f:(fun nid _ ->
        if
          !diff = None
          && (S.value sim nid <> r.Ref_sim.values.(nid)
              || S.toggles sim nid <> r.Ref_sim.toggle_count.(nid)
              || S.ones sim nid <> r.Ref_sim.ones_count.(nid))
        then
          diff :=
            Some
              (Printf.sprintf
                 "net %d: value %b/%b toggles %d/%d ones %d/%d" nid
                 (S.value sim nid) r.Ref_sim.values.(nid) (S.toggles sim nid)
                 r.Ref_sim.toggle_count.(nid) (S.ones sim nid)
                 r.Ref_sim.ones_count.(nid)));
    !diff

(* Both engines in lockstep on one random stimulus. Before a cycle both
   may have their counters reset; after every cycle each net's value,
   toggles and ones, and the cycle count, must agree. *)
let lockstep nl ~p ~cycles ~seed =
  let sim = Logicsim.Sim.create nl and r = Ref_sim.create nl in
  let rng = Geo.Rng.create seed in
  let mismatch = ref (first_difference sim r) and cycle = ref 0 in
  while !mismatch = None && !cycle < cycles do
    incr cycle;
    for k = 0 to T.num_primary_inputs nl - 1 do
      if Geo.Rng.bernoulli rng p then begin
        let v = not (Logicsim.Sim.input_value sim k) in
        Logicsim.Sim.set_input sim k v;
        r.Ref_sim.staged.(k) <- v
      end
    done;
    if Geo.Rng.bernoulli rng 0.05 then begin
      Logicsim.Sim.reset_counters sim;
      Ref_sim.reset_counters r
    end;
    Logicsim.Sim.step sim;
    Ref_sim.step r;
    mismatch :=
      Option.map (Printf.sprintf "cycle %d: %s" !cycle)
        (first_difference sim r)
  done;
  !mismatch

let macro name build =
  let b = B.create () in
  let outs = build b in
  Netgen.Prim.outputs b outs;
  (name, B.finish b)

let netgen_macros () =
  let module P = Netgen.Prim in
  let ins b p w = P.inputs b ~prefix:p ~width:w in
  let two b w = (ins b "a" w, ins b "b" w) in
  let with_carry (s, c) = Array.append s [| c |] in
  [ macro "ripple_carry" (fun b ->
        let a, c = two b 6 in
        with_carry (Netgen.Adder.ripple_carry b ~a ~b:c ~cin:(B.add_input b)));
    macro "carry_lookahead" (fun b ->
        let a, c = two b 8 in
        with_carry
          (Netgen.Adder.carry_lookahead b ~a ~b:c ~cin:(B.add_input b)));
    macro "carry_select" (fun b ->
        let a, c = two b 8 in
        with_carry
          (Netgen.Adder.carry_select b ~a ~b:c ~cin:(B.add_input b) ~group:3));
    macro "subtractor" (fun b ->
        let a, c = two b 6 in
        with_carry (Netgen.Adder.subtractor b ~a ~b:c));
    macro "alu" (fun b ->
        let a, c = two b 6 in
        let op = { Netgen.Alu.op0 = B.add_input b; op1 = B.add_input b } in
        with_carry (Netgen.Alu.alu b ~a ~b:c ~op));
    macro "comparators" (fun b ->
        let a, c = two b 5 in
        let lt, eq, gt = Netgen.Comparator.compare_full b ~a ~b:c in
        [| lt; eq; gt; Netgen.Comparator.equal b ~a ~b:c;
           Netgen.Comparator.less_than b ~a ~b:c |]);
    macro "array_divider" (fun b ->
        let q, r =
          Netgen.Divider.array_divider b ~dividend:(ins b "n" 6)
            ~divisor:(ins b "d" 6)
        in
        Array.append q r);
    macro "mac" (fun b ->
        let a, c = two b 4 in
        Netgen.Mac.mac b ~a ~b:c ~acc_width:12);
    macro "array_multiplier" (fun b ->
        let a, c = two b 4 in
        Netgen.Multiplier.array_multiplier b ~a ~b:c);
    macro "wallace_multiplier" (fun b ->
        let a, c = two b 5 in
        Netgen.Multiplier.wallace_multiplier b ~a ~b:c);
    macro "barrel shifters" (fun b ->
        let data = ins b "x" 8 and amount = ins b "s" 3 in
        Array.concat
          [ Netgen.Shifter.barrel_left b ~data ~amount;
            Netgen.Shifter.barrel_right b ~data ~amount;
            Netgen.Shifter.rotate_left b ~data ~amount ]);
    macro "reduce + mux + registers" (fun b ->
        let a, c = two b 7 in
        let m = P.mux2_bus b ~a ~b:c ~sel:(B.add_input b) in
        P.register_bus b
          (Array.append m
             [| P.and_reduce b a; P.or_reduce b c; P.xor_reduce b m |]));
    ("small benchmark", (Netgen.Benchmark.small ()).Netgen.Benchmark.netlist) ]

let test_tape_matches_reference_macros () =
  List.iteri
    (fun i (name, nl) ->
       match lockstep nl ~p:0.4 ~cycles:150 ~seed:(300 + i) with
       | None -> ()
       | Some msg -> Alcotest.failf "%s: %s" name msg)
    (netgen_macros ())

(* The flow's configuration end to end: test set 1's workload through
   Activity.measure (64 + 1000 cycles) against the reference engine driven
   by the stimulus loop as it was before input probabilities were
   resolved once per run. Rates must match bit for bit. *)
let test_tape_matches_reference_nine_unit () =
  let nl = (Netgen.Benchmark.nine_unit ()).Netgen.Benchmark.netlist in
  let w = Logicsim.Workload.scattered_hotspots ~hot_units:[ 0; 4; 6; 8 ] in
  let report =
    Logicsim.Activity.measure (Logicsim.Sim.create nl) w (Geo.Rng.create 7)
      ~warmup:64 ~cycles:1000
  in
  let r = Ref_sim.create nl and rng = Geo.Rng.create 7 in
  let run cycles =
    for _ = 1 to cycles do
      Array.iteri
        (fun k _ ->
           let p = Logicsim.Workload.activity w ~tag:nl.T.pi_tags.(k) in
           if Geo.Rng.bernoulli rng p then
             r.Ref_sim.staged.(k) <- not r.Ref_sim.staged.(k))
        nl.T.primary_inputs;
      Ref_sim.step r
    done
  in
  run 64;
  Ref_sim.reset_counters r;
  run 1000;
  let rate count = float_of_int count /. 1000.0 in
  let bits = Int64.bits_of_float in
  T.iter_nets nl ~f:(fun nid _ ->
      if
        bits report.Logicsim.Activity.toggle_rate.(nid)
        <> bits (rate r.Ref_sim.toggle_count.(nid))
        || bits report.Logicsim.Activity.static_prob.(nid)
           <> bits (rate r.Ref_sim.ones_count.(nid))
      then Alcotest.failf "net %d: activity differs from reference" nid)

(* Random DAGs over every combinational kind plus flip-flops fed back from
   anywhere in the logic. The spec's integers pick pins modulo the nets
   built so far, so every spec is a valid netlist. *)
let random_dag_gen =
  QCheck.Gen.(
    let* n_in = int_range 1 6 in
    let* n_dff = int_range 0 4 in
    let* pins = list_repeat 15 (triple nat nat nat) in
    let* extra = list_size (int_range 0 40) (quad (int_bound 14) nat nat nat) in
    let* dff_src = list_repeat n_dff nat in
    let* seed = int_bound 1_000_000 in
    return (n_in, pins, extra, dff_src, seed))

let build_dag (n_in, pins, extra, dff_src, _) =
  let b = B.create () in
  let pool = ref [] and size = ref 0 in
  let add nid = pool := nid :: !pool; incr size in
  let pick x = List.nth !pool (x mod !size) in
  for _ = 1 to n_in do add (B.add_input b) done;
  add (B.add_constant b (n_in mod 2 = 0));
  let connectors =
    List.map
      (fun _ ->
         let q, connect = B.add_dff_feedback b in
         add q;
         connect)
      dff_src
  in
  let gate kind (x, y, z) =
    let inputs = Array.sub [| pick x; pick y; pick z |] 0 (K.num_inputs kind) in
    let out = B.add_gate b kind inputs in
    add out;
    B.mark_output b out
  in
  List.iter2 gate comb_kinds pins;
  List.iter (fun (k, x, y, z) -> gate (List.nth comb_kinds k) (x, y, z)) extra;
  List.iter2 (fun connect src -> connect (pick src)) connectors dff_src;
  B.finish b

let random_dag_arb =
  QCheck.make random_dag_gen
    ~print:(fun (n_in, _, extra, dff_src, seed) ->
        Printf.sprintf "%d inputs, %d extra gates, %d dffs, seed %d" n_in
          (List.length extra) (List.length dff_src) seed)

let prop_tape_matches_reference_random_dags =
  QCheck.Test.make ~name:"matches reference on random DAGs" ~count:200
    random_dag_arb (fun ((_, _, _, _, seed) as spec) ->
        match lockstep (build_dag spec) ~p:0.5 ~cycles:40 ~seed with
        | None -> true
        | Some msg -> QCheck.Test.fail_report msg)

let () =
  Alcotest.run "logicsim"
    [ ("sim",
       [ Alcotest.test_case "comb one step" `Quick
           test_comb_propagation_one_step;
         Alcotest.test_case "dff delay" `Quick test_dff_one_cycle_delay;
         Alcotest.test_case "pipeline depth" `Quick test_dff_pipeline_depth;
         Alcotest.test_case "constants hold" `Quick test_constants_hold;
         Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
         Alcotest.test_case "ones counting" `Quick test_ones_counting ]);
      ("workload",
       [ Alcotest.test_case "activity mapping" `Quick test_workload_activity;
         Alcotest.test_case "validation" `Quick test_workload_validation;
         Alcotest.test_case "paper shapes" `Quick test_workload_shapes;
         Alcotest.test_case "zero activity settles" `Quick
           test_workload_zero_activity_settles;
         Alcotest.test_case "full activity" `Quick
           test_workload_full_activity ]);
      ("activity",
       [ Alcotest.test_case "measure" `Quick test_activity_measure;
         Alcotest.test_case "cycles required" `Quick
           test_activity_requires_cycles;
         Alcotest.test_case "constant rate" `Quick
           test_activity_constant_rate ]);
      ("density",
       [ Alcotest.test_case "gate formulas" `Quick
           test_density_gate_formulas;
         Alcotest.test_case "clamped" `Quick test_density_clamped;
         Alcotest.test_case "tracks simulation" `Quick
           test_density_vs_simulation;
         Alcotest.test_case "constants" `Quick test_density_constants ]);
      ("event-sim",
       [ Alcotest.test_case "sees glitches" `Quick
           test_event_sim_sees_glitches;
         Alcotest.test_case "settled values match Sim" `Quick
           test_event_sim_settled_values_match_sim;
         Alcotest.test_case "toggles dominate zero-delay" `Quick
           test_event_sim_toggles_dominate;
         Alcotest.test_case "settle depth bounded" `Quick
           test_event_sim_settle_depth_bounded;
         Alcotest.test_case "rates exceed one on glitchy nets" `Quick
           test_event_sim_rates_can_exceed_one ]);
      ("tape",
       [ Alcotest.test_case "opcode truth tables" `Quick
           test_tape_truth_tables;
         Alcotest.test_case "malformed cells rejected at create" `Quick
           test_tape_rejects_malformed;
         Alcotest.test_case "event-sim settles in tape order" `Quick
           test_event_sim_settles_in_tape_order;
         Alcotest.test_case "matches reference on netgen macros" `Quick
           test_tape_matches_reference_macros;
         Alcotest.test_case "matches reference on nine_unit" `Quick
           test_tape_matches_reference_nine_unit;
         QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |])
           prop_tape_matches_reference_random_dags ]) ]
