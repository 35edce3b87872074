module T = Netlist.Types

(* Per-net counters. The ones counter is kept lazily: a net at 1 is
   sampled at the end of every cycle from [since] on, so a fall during
   cycle [n_cycles] closes the interval [since, n_cycles) into
   [ones_closed] and {!ones} adds the open one. *)
type counters = {
  toggle_count : int array;
  ones_closed : int array;
  since : int array;            (* meaningful while the net is at 1 *)
  mutable n_cycles : int;
}

type t = {
  nl : T.t;
  tape : Tape.t;
  values : bool array;          (* per net *)
  staged_inputs : bool array;   (* per primary input *)
  dff_state : bool array;       (* per flip-flop, aligned with tape.dff_q *)
  counters : counters;
  on_change : int -> bool -> unit;  (* [record counters], built once *)
}

let record c nid v =
  c.toggle_count.(nid) <- c.toggle_count.(nid) + 1;
  if v then c.since.(nid) <- c.n_cycles
  else c.ones_closed.(nid) <- c.ones_closed.(nid) + c.n_cycles - c.since.(nid)

let create nl =
  let tape = Tape.compile nl in
  let values = Tape.settled_values tape nl in
  let n = T.num_nets nl in
  let counters =
    { toggle_count = Array.make n 0;
      ones_closed = Array.make n 0;
      since = Array.make n 0;
      n_cycles = 0 }
  in
  { nl;
    tape;
    values;
    staged_inputs = Array.make (T.num_primary_inputs nl) false;
    dff_state = Array.make (Array.length tape.Tape.dff_q) false;
    counters;
    on_change = record counters }

let netlist t = t.nl

let set_input t k v = t.staged_inputs.(k) <- v
let input_value t k = t.staged_inputs.(k)

let update t nid v =
  if t.values.(nid) <> v then begin
    t.values.(nid) <- v;
    record t.counters nid v
  end

let step t =
  let tape = t.tape in
  (* 1. flip-flop Q nets present the state captured last cycle *)
  let dff_q = tape.Tape.dff_q in
  for k = 0 to Array.length dff_q - 1 do
    update t dff_q.(k) t.dff_state.(k)
  done;
  (* 2. primary inputs take their staged values *)
  let pi = tape.Tape.pi in
  for k = 0 to Array.length pi - 1 do
    update t pi.(k) t.staged_inputs.(k)
  done;
  (* 3. combinational propagation in topological order *)
  Tape.propagate tape t.values ~changed:t.on_change;
  (* 4. flip-flops capture D *)
  let dff_d = tape.Tape.dff_d in
  for k = 0 to Array.length dff_d - 1 do
    t.dff_state.(k) <- t.values.(dff_d.(k))
  done;
  t.counters.n_cycles <- t.counters.n_cycles + 1

let cycles t = t.counters.n_cycles
let value t nid = t.values.(nid)
let toggles t nid = t.counters.toggle_count.(nid)

let ones t nid =
  let c = t.counters in
  c.ones_closed.(nid) + if t.values.(nid) then c.n_cycles - c.since.(nid) else 0

let reset_counters t =
  let c = t.counters in
  Array.fill c.toggle_count 0 (Array.length c.toggle_count) 0;
  Array.fill c.ones_closed 0 (Array.length c.ones_closed) 0;
  Array.fill c.since 0 (Array.length c.since) 0;
  c.n_cycles <- 0
