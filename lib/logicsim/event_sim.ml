module T = Netlist.Types

type t = {
  nl : T.t;
  tape : Tape.t;
  values : bool array;            (* per net *)
  staged_inputs : bool array;     (* per primary input *)
  dff_state : bool array;         (* per flip-flop, aligned with tape.dff_q *)
  toggle_count : int array;       (* per net, glitches included *)
  ones_count : int array;
  mutable n_cycles : int;
  mutable n_events : int;         (* gate evaluations across all waves *)
  mutable settle_waves : int;
  (* scratch wave state, sized once *)
  cell_seen : int array;          (* last wave a cell was evaluated in *)
  mutable wave_id : int;
}

let create nl =
  let tape = Tape.compile nl in
  let values = Tape.settled_values tape nl in
  { nl;
    tape;
    values;
    staged_inputs = Array.make (T.num_primary_inputs nl) false;
    dff_state = Array.make (Array.length tape.Tape.dff_q) false;
    toggle_count = Array.make (T.num_nets nl) 0;
    ones_count = Array.make (T.num_nets nl) 0;
    n_cycles = 0;
    n_events = 0;
    settle_waves = 0;
    cell_seen = Array.make (T.num_cells nl) (-1);
    wave_id = 0 }

let netlist t = t.nl
let set_input t k v = t.staged_inputs.(k) <- v
let input_value t k = t.staged_inputs.(k)
let cycles t = t.n_cycles
let events t = t.n_events
let value t nid = t.values.(nid)
let toggles t nid = t.toggle_count.(nid)
let ones t nid = t.ones_count.(nid)

let reset_counters t =
  Array.fill t.toggle_count 0 (Array.length t.toggle_count) 0;
  Array.fill t.ones_count 0 (Array.length t.ones_count) 0;
  t.n_cycles <- 0;
  t.n_events <- 0

let apply_change t nid v =
  if t.values.(nid) <> v then begin
    t.values.(nid) <- v;
    t.toggle_count.(nid) <- t.toggle_count.(nid) + 1;
    true
  end else false

(* One wave: all nets in [changed] just switched; every combinational gate
   sinking one of them is re-evaluated once, and outputs that differ switch
   in the next wave (unit gate delay). *)
let propagate_wave t changed =
  let nl = t.nl in
  let tape = t.tape in
  let next = ref [] in
  t.wave_id <- t.wave_id + 1;
  List.iter
    (fun nid ->
       Array.iter
         (fun (cid, _pin) ->
            if t.cell_seen.(cid) <> t.wave_id then begin
              t.cell_seen.(cid) <- t.wave_id;
              t.n_events <- t.n_events + 1;
              let s = tape.Tape.slot.(cid) in
              if s >= 0 then begin
                let v = Tape.eval tape t.values s in
                let out = tape.Tape.out.(s) in
                if v <> t.values.(out) then next := (out, v) :: !next
              end
            end)
         (T.net nl nid).T.sinks)
    changed;
  (* apply the next wave's changes; a gate scheduled twice keeps the last
     computed value (there is one entry per cell because of cell_seen) *)
  List.filter_map
    (fun (nid, v) -> if apply_change t nid v then Some nid else None)
    !next

let step t =
  let nl = t.nl in
  let tape = t.tape in
  (* wave 0: flip-flop outputs and primary inputs release their new values *)
  let wave0 = ref [] in
  Array.iteri
    (fun k nid ->
       if apply_change t nid t.dff_state.(k) then wave0 := nid :: !wave0)
    tape.Tape.dff_q;
  Array.iteri
    (fun k nid ->
       if apply_change t nid t.staged_inputs.(k) then
         wave0 := nid :: !wave0)
    tape.Tape.pi;
  let waves = ref 0 in
  let changed = ref !wave0 in
  let cap = T.num_cells nl + 2 in
  while !changed <> [] do
    incr waves;
    if !waves > cap then failwith "Event_sim.step: failed to settle";
    changed := propagate_wave t !changed
  done;
  t.settle_waves <- !waves;
  (* capture *)
  Array.iteri
    (fun k nid -> t.dff_state.(k) <- t.values.(nid))
    tape.Tape.dff_d;
  Array.iteri
    (fun nid v -> if v then t.ones_count.(nid) <- t.ones_count.(nid) + 1)
    t.values;
  t.n_cycles <- t.n_cycles + 1

let last_settle_waves t = t.settle_waves

let measure t workload rng ~warmup ~cycles =
  if cycles <= 0 then invalid_arg "Event_sim.measure: cycles <= 0";
  Obs.Trace.with_span "sim.event.measure" @@ fun () ->
  let nl = t.nl in
  let probs = Workload.input_probs workload nl in
  let flip k = set_input t k (not (input_value t k)) in
  let drive () = Workload.draw_flips probs rng ~flip in
  for _ = 1 to warmup do
    drive ();
    step t
  done;
  reset_counters t;
  for _ = 1 to cycles do
    drive ();
    step t
  done;
  Obs.Metrics.count "sim.event.cycles" ~by:cycles;
  Obs.Metrics.count "sim.event.events" ~by:t.n_events;
  Obs.Metrics.observe "sim.event.events_per_cycle"
    (float_of_int t.n_events /. float_of_int cycles);
  let n = T.num_nets nl in
  let fc = float_of_int cycles in
  { Activity.measured_cycles = cycles;
    toggle_rate = Array.init n (fun nid -> float_of_int t.toggle_count.(nid) /. fc);
    static_prob = Array.init n (fun nid -> float_of_int t.ones_count.(nid) /. fc) }
