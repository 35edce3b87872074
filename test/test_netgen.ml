(* Functional correctness of the arithmetic generators, verified by logic
   simulation against integer arithmetic. *)

module B = Netlist.Builder

let set_bus sim first_pi width v =
  for i = 0 to width - 1 do
    Logicsim.Sim.set_input sim (first_pi + i) ((v lsr i) land 1 = 1)
  done

let read_bus sim (bus : Netlist.Types.net_id array) =
  Array.to_list bus
  |> List.mapi (fun i nid -> if Logicsim.Sim.value sim nid then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

(* Build a combinational circuit over two PI buses, simulate one cycle per
   stimulus and compare against [model]. *)
let check_binop ~name ~wa ~wb ~build ~model stimuli =
  let b = B.create () in
  let a_bus = Array.init wa (fun _ -> B.add_input b) in
  let b_bus = Array.init wb (fun _ -> B.add_input b) in
  let outs = build b ~a:a_bus ~b:b_bus in
  Array.iter (B.mark_output b) outs;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  List.iter
    (fun (x, y) ->
       set_bus sim 0 wa x;
       set_bus sim wa wb y;
       Logicsim.Sim.step sim;
       let got = read_bus sim outs in
       let expected = model x y in
       if got <> expected then
         Alcotest.failf "%s(%d, %d): expected %d, got %d" name x y expected
           got)
    stimuli

let exhaustive w =
  List.concat_map
    (fun x -> List.init (1 lsl w) (fun y -> (x, y)))
    (List.init (1 lsl w) (fun x -> x))

let random_pairs ~w ~n seed =
  let rng = Geo.Rng.create seed in
  List.init n (fun _ ->
      (Geo.Rng.int rng (1 lsl w), Geo.Rng.int rng (1 lsl w)))

(* --- adders -------------------------------------------------------------- *)

let build_adder kind b ~a ~b:b_bus =
  let zero = B.add_constant b false in
  let sum, carry =
    match kind with
    | `Ripple -> Netgen.Adder.ripple_carry b ~a ~b:b_bus ~cin:zero
    | `Cla -> Netgen.Adder.carry_lookahead b ~a ~b:b_bus ~cin:zero
    | `Csel -> Netgen.Adder.carry_select b ~a ~b:b_bus ~cin:zero ~group:3
  in
  Array.append sum [| carry |]

let test_ripple_exhaustive_4bit () =
  check_binop ~name:"ripple4" ~wa:4 ~wb:4 ~build:(build_adder `Ripple)
    ~model:(fun x y -> x + y)
    (exhaustive 4)

let test_ripple_with_carry_in () =
  let b = B.create () in
  let a_bus = Array.init 4 (fun _ -> B.add_input b) in
  let b_bus = Array.init 4 (fun _ -> B.add_input b) in
  let cin = B.add_input b in
  let sum, carry = Netgen.Adder.ripple_carry b ~a:a_bus ~b:b_bus ~cin in
  let outs = Array.append sum [| carry |] in
  Array.iter (B.mark_output b) outs;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  List.iter
    (fun (x, y) ->
       set_bus sim 0 4 x;
       set_bus sim 4 4 y;
       Logicsim.Sim.set_input sim 8 true;
       Logicsim.Sim.step sim;
       Alcotest.(check int)
         (Printf.sprintf "%d+%d+1" x y)
         (x + y + 1) (read_bus sim outs))
    [ (0, 0); (15, 15); (7, 8); (9, 3) ]

let test_cla_matches_ripple () =
  check_binop ~name:"cla16" ~wa:16 ~wb:16 ~build:(build_adder `Cla)
    ~model:(fun x y -> x + y)
    (random_pairs ~w:16 ~n:200 101)

let test_carry_select () =
  check_binop ~name:"csel10" ~wa:10 ~wb:10 ~build:(build_adder `Csel)
    ~model:(fun x y -> x + y)
    (random_pairs ~w:10 ~n:200 102)

let test_subtractor () =
  check_binop ~name:"sub6" ~wa:6 ~wb:6
    ~build:(fun b ~a ~b:b_bus ->
        let diff, no_borrow = Netgen.Adder.subtractor b ~a ~b:b_bus in
        Array.append diff [| no_borrow |])
    ~model:(fun x y ->
        (* 6-bit two's complement difference + "no borrow" flag as bit 6 *)
        ((x - y) land 63) lor (if x >= y then 64 else 0))
    (exhaustive 6)

(* --- multipliers ---------------------------------------------------------- *)

let test_array_multiplier_exhaustive_4bit () =
  check_binop ~name:"mul4" ~wa:4 ~wb:4
    ~build:(fun b ~a ~b:b_bus -> Netgen.Multiplier.array_multiplier b ~a ~b:b_bus)
    ~model:( * ) (exhaustive 4)

let test_array_multiplier_rectangular () =
  check_binop ~name:"mul6x3" ~wa:6 ~wb:3
    ~build:(fun b ~a ~b:b_bus -> Netgen.Multiplier.array_multiplier b ~a ~b:b_bus)
    ~model:( * )
    (List.concat_map (fun x -> List.init 8 (fun y -> (x, y)))
       (List.init 64 (fun x -> x)))

let test_wallace_multiplier () =
  check_binop ~name:"wallace8" ~wa:8 ~wb:8
    ~build:(fun b ~a ~b:b_bus ->
        Netgen.Multiplier.wallace_multiplier b ~a ~b:b_bus)
    ~model:( * ) (random_pairs ~w:8 ~n:300 103)

let test_wallace_exhaustive_3bit () =
  check_binop ~name:"wallace3" ~wa:3 ~wb:3
    ~build:(fun b ~a ~b:b_bus ->
        Netgen.Multiplier.wallace_multiplier b ~a ~b:b_bus)
    ~model:( * ) (exhaustive 3)

(* --- divider -------------------------------------------------------------- *)

let test_divider () =
  check_binop ~name:"div6" ~wa:6 ~wb:6
    ~build:(fun b ~a ~b:b_bus ->
        let q, r = Netgen.Divider.array_divider b ~dividend:a ~divisor:b_bus in
        Array.append q r)
    ~model:(fun x y ->
        if y = 0 then
          (* divide-by-zero: quotient saturates to all-ones, remainder is
             left as the iterated shift result; only the quotient part is
             architected, so compare quotient bits only by masking the
             model: the hardware yields q=63 (every trial subtraction
             succeeds against 0) and r=x mod 64 shifted out = 0 *)
          63 lor ((x land 0) lsl 6)
        else (x / y) lor ((x mod y) lsl 6))
    (List.filter (fun (_, y) -> y > 0) (exhaustive 6))

let test_divider_edge_cases () =
  check_binop ~name:"div-edge" ~wa:8 ~wb:8
    ~build:(fun b ~a ~b:b_bus ->
        let q, r = Netgen.Divider.array_divider b ~dividend:a ~divisor:b_bus in
        Array.append q r)
    ~model:(fun x y -> (x / y) lor ((x mod y) lsl 8))
    [ (0, 1); (255, 1); (255, 255); (1, 255); (128, 2); (100, 7) ]

(* --- comparators ---------------------------------------------------------- *)

let test_comparator_exhaustive () =
  check_binop ~name:"cmp3" ~wa:3 ~wb:3
    ~build:(fun b ~a ~b:b_bus ->
        let lt, eq, gt = Netgen.Comparator.compare_full b ~a ~b:b_bus in
        [| lt; eq; gt |])
    ~model:(fun x y ->
        (if x < y then 1 else 0) lor (if x = y then 2 else 0)
        lor (if x > y then 4 else 0))
    (exhaustive 3)

let test_equal () =
  check_binop ~name:"eq5" ~wa:5 ~wb:5
    ~build:(fun b ~a ~b:b_bus -> [| Netgen.Comparator.equal b ~a ~b:b_bus |])
    ~model:(fun x y -> if x = y then 1 else 0)
    (random_pairs ~w:5 ~n:100 104 @ [ (7, 7); (0, 0); (31, 31) ])

(* --- shifter -------------------------------------------------------------- *)

let test_barrel_shifts () =
  (* data is 8 bits, amount is 3 bits packed into the "b" bus *)
  let mask = 255 in
  check_binop ~name:"shl8" ~wa:8 ~wb:3
    ~build:(fun b ~a ~b:amount ->
        Netgen.Shifter.barrel_left b ~data:a ~amount)
    ~model:(fun x s -> (x lsl s) land mask)
    (random_pairs ~w:8 ~n:50 105
     |> List.map (fun (x, y) -> (x, y land 7)));
  check_binop ~name:"shr8" ~wa:8 ~wb:3
    ~build:(fun b ~a ~b:amount ->
        Netgen.Shifter.barrel_right b ~data:a ~amount)
    ~model:(fun x s -> x lsr s)
    (random_pairs ~w:8 ~n:50 106
     |> List.map (fun (x, y) -> (x, y land 7)));
  check_binop ~name:"rol8" ~wa:8 ~wb:3
    ~build:(fun b ~a ~b:amount ->
        Netgen.Shifter.rotate_left b ~data:a ~amount)
    ~model:(fun x s -> ((x lsl s) lor (x lsr (8 - s))) land mask)
    (random_pairs ~w:8 ~n:50 107
     |> List.map (fun (x, y) -> (x, 1 + (y land 6))))

(* --- ALU ------------------------------------------------------------------ *)

let test_alu_ops () =
  let w = 8 in
  let mask = (1 lsl w) - 1 in
  List.iter
    (fun (op, model_fn, name) ->
       check_binop ~name ~wa:w ~wb:w
         ~build:(fun b ~a ~b:b_bus ->
             let op0 = B.add_constant b (op land 1 = 1) in
             let op1 = B.add_constant b (op land 2 = 2) in
             let result, _flag =
               Netgen.Alu.alu b ~a ~b:b_bus ~op:{ Netgen.Alu.op0; op1 }
             in
             result)
         ~model:model_fn
         (random_pairs ~w ~n:100 (110 + op)))
    [ (0, (fun x y -> (x + y) land mask), "alu-add");
      (1, (fun x y -> (x - y) land mask), "alu-sub");
      (2, (fun x y -> x land y), "alu-and");
      (3, (fun x y -> x lxor y), "alu-xor") ]

(* --- MAC ------------------------------------------------------------------ *)

let test_mac_accumulates () =
  let w = 4 in
  let b = B.create () in
  let a_bus = Array.init w (fun _ -> B.add_input b) in
  let b_bus = Array.init w (fun _ -> B.add_input b) in
  let acc = Netgen.Mac.mac b ~a:a_bus ~b:b_bus ~acc_width:(2 * w) in
  Array.iter (B.mark_output b) acc;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  set_bus sim 0 w 5;
  set_bus sim w w 3;
  (* single-stage MAC: acc <= acc + a*b, so after k cycles the visible
     accumulator holds (k-1) products *)
  for k = 1 to 6 do
    Logicsim.Sim.step sim;
    let expected = max 0 (k - 1) * 15 mod 256 in
    Alcotest.(check int)
      (Printf.sprintf "acc after %d cycles" k)
      expected (read_bus sim acc)
  done

let test_mac_too_narrow_rejected () =
  let b = B.create () in
  let a_bus = Array.init 4 (fun _ -> B.add_input b) in
  let b_bus = Array.init 4 (fun _ -> B.add_input b) in
  (match Netgen.Mac.mac b ~a:a_bus ~b:b_bus ~acc_width:7 with
   | _ -> Alcotest.fail "narrow accumulator accepted"
   | exception Invalid_argument _ -> ())

(* --- prim reductions ------------------------------------------------------ *)

let test_reductions () =
  let check name build model =
    check_binop ~name ~wa:5 ~wb:1
      ~build:(fun b ~a ~b:_ -> [| build b a |])
      ~model:(fun x _ -> model x)
      (List.init 32 (fun x -> (x, 0)))
  in
  check "and_reduce" (fun b a -> Netgen.Prim.and_reduce b a)
    (fun x -> if x = 31 then 1 else 0);
  check "or_reduce" (fun b a -> Netgen.Prim.or_reduce b a)
    (fun x -> if x > 0 then 1 else 0);
  check "xor_reduce" (fun b a -> Netgen.Prim.xor_reduce b a)
    (fun x ->
       let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
       pop x land 1)

let test_full_adder_prim () =
  check_binop ~name:"fa" ~wa:2 ~wb:1
    ~build:(fun b ~a ~b:c ->
        let s, carry = Netgen.Prim.full_adder b a.(0) a.(1) c.(0) in
        [| s; carry |])
    ~model:(fun x c -> (x land 1) + ((x lsr 1) land 1) + c)
    [ (0, 0); (1, 0); (2, 0); (3, 0); (0, 1); (1, 1); (2, 1); (3, 1) ]

(* --- benchmark ------------------------------------------------------------ *)

let test_nine_unit_shape () =
  let bench = Netgen.Benchmark.nine_unit () in
  let nl = bench.Netgen.Benchmark.netlist in
  Alcotest.(check int) "nine units" 9
    (Array.length bench.Netgen.Benchmark.units);
  let n = Netlist.Types.num_cells nl in
  if n < 10000 || n > 15000 then
    Alcotest.failf "cell count %d out of the paper's ~12k ballpark" n;
  Alcotest.(check bool) "well formed" true (Netlist.Check.is_well_formed nl);
  Alcotest.(check (list int)) "tags 0..8"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (Netlist.Types.unit_tags nl);
  Array.iter
    (fun u ->
       let cells =
         Netlist.Types.cells_of_unit nl u.Netgen.Benchmark.tag
       in
       if List.length cells < 100 then
         Alcotest.failf "unit %s suspiciously small"
           u.Netgen.Benchmark.unit_name)
    bench.Netgen.Benchmark.units

let test_small_benchmark () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  Alcotest.(check int) "three units" 3
    (Array.length bench.Netgen.Benchmark.units);
  Alcotest.(check bool) "well formed" true (Netlist.Check.is_well_formed nl);
  Alcotest.(check bool) "smaller than nine_unit" true
    (Netlist.Types.num_cells nl < 1000)

let test_unit_of_cell () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  match Netlist.Types.cells_of_unit nl 1 with
  | cid :: _ ->
    (match Netgen.Benchmark.unit_of_cell bench cid with
     | Some u -> Alcotest.(check int) "tag" 1 u.Netgen.Benchmark.tag
     | None -> Alcotest.fail "expected a unit")
  | [] -> Alcotest.fail "unit 1 empty"

(* --- property tests ---------------------------------------------------------- *)

let simulate_binop ~wa ~wb ~build (x, y) =
  let b = B.create () in
  let a_bus = Array.init wa (fun _ -> B.add_input b) in
  let b_bus = Array.init wb (fun _ -> B.add_input b) in
  let outs = build b ~a:a_bus ~b:b_bus in
  Array.iter (B.mark_output b) outs;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  set_bus sim 0 wa x;
  set_bus sim wa wb y;
  Logicsim.Sim.step sim;
  read_bus sim outs

let prop_adders_agree =
  QCheck.Test.make
    ~name:"ripple, CLA and carry-select agree at random widths" ~count:40
    QCheck.(triple (int_range 2 14) (int_range 0 16383) (int_range 0 16383))
    (fun (w, x0, y0) ->
       let mask = (1 lsl w) - 1 in
       let x = x0 land mask and y = y0 land mask in
       let run kind =
         simulate_binop ~wa:w ~wb:w
           ~build:(fun b ~a ~b:b_bus ->
               let zero = B.add_constant b false in
               let sum, c =
                 match kind with
                 | `R -> Netgen.Adder.ripple_carry b ~a ~b:b_bus ~cin:zero
                 | `C -> Netgen.Adder.carry_lookahead b ~a ~b:b_bus ~cin:zero
                 | `S ->
                   Netgen.Adder.carry_select b ~a ~b:b_bus ~cin:zero ~group:3
               in
               Array.append sum [| c |])
           (x, y)
       in
       let expected = x + y in
       run `R = expected && run `C = expected && run `S = expected)

let prop_multipliers_agree =
  QCheck.Test.make ~name:"array and Wallace multipliers agree" ~count:30
    QCheck.(triple (int_range 2 8) (int_range 0 255) (int_range 0 255))
    (fun (w, x0, y0) ->
       let mask = (1 lsl w) - 1 in
       let x = x0 land mask and y = y0 land mask in
       let run f = simulate_binop ~wa:w ~wb:w ~build:f (x, y) in
       run (fun b ~a ~b:b_bus -> Netgen.Multiplier.array_multiplier b ~a ~b:b_bus)
       = x * y
       && run (fun b ~a ~b:b_bus ->
           Netgen.Multiplier.wallace_multiplier b ~a ~b:b_bus)
          = x * y)

let prop_division_identity =
  QCheck.Test.make ~name:"divider satisfies x = q*y + r, r < y" ~count:40
    QCheck.(pair (int_range 0 255) (int_range 1 255))
    (fun (x, y) ->
       let out =
         simulate_binop ~wa:8 ~wb:8
           ~build:(fun b ~a ~b:b_bus ->
               let q, r =
                 Netgen.Divider.array_divider b ~dividend:a ~divisor:b_bus
               in
               Array.append q r)
           (x, y)
       in
       let q = out land 255 and r = (out lsr 8) land 255 in
       (q * y) + r = x && r < y)

let () =
  Alcotest.run "netgen"
    [ ("adders",
       [ Alcotest.test_case "ripple exhaustive 4b" `Quick
           test_ripple_exhaustive_4bit;
         Alcotest.test_case "ripple carry-in" `Quick test_ripple_with_carry_in;
         Alcotest.test_case "CLA random 16b" `Quick test_cla_matches_ripple;
         Alcotest.test_case "carry-select 10b" `Quick test_carry_select;
         Alcotest.test_case "subtractor exhaustive 6b" `Quick
           test_subtractor ]);
      ("multipliers",
       [ Alcotest.test_case "array exhaustive 4b" `Quick
           test_array_multiplier_exhaustive_4bit;
         Alcotest.test_case "array rectangular 6x3" `Quick
           test_array_multiplier_rectangular;
         Alcotest.test_case "wallace random 8b" `Quick
           test_wallace_multiplier;
         Alcotest.test_case "wallace exhaustive 3b" `Quick
           test_wallace_exhaustive_3bit ]);
      ("divider",
       [ Alcotest.test_case "exhaustive 6b" `Quick test_divider;
         Alcotest.test_case "edge cases 8b" `Quick test_divider_edge_cases ]);
      ("comparators",
       [ Alcotest.test_case "compare_full exhaustive 3b" `Quick
           test_comparator_exhaustive;
         Alcotest.test_case "equal 5b" `Quick test_equal ]);
      ("shifter",
       [ Alcotest.test_case "barrel left/right/rotate" `Quick
           test_barrel_shifts ]);
      ("alu", [ Alcotest.test_case "four ops" `Quick test_alu_ops ]);
      ("mac",
       [ Alcotest.test_case "accumulates" `Quick test_mac_accumulates;
         Alcotest.test_case "narrow acc rejected" `Quick
           test_mac_too_narrow_rejected ]);
      ("prim",
       [ Alcotest.test_case "reductions" `Quick test_reductions;
         Alcotest.test_case "full adder" `Quick test_full_adder_prim ]);
      ("benchmark",
       [ Alcotest.test_case "nine-unit shape" `Quick test_nine_unit_shape;
         Alcotest.test_case "small benchmark" `Quick test_small_benchmark;
         Alcotest.test_case "unit_of_cell" `Quick test_unit_of_cell ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_adders_agree; prop_multipliers_agree;
           prop_division_identity ]) ]
