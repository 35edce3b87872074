(** A netlist compiled once into a flat, levelized gate tape.

    Both simulators evaluate gates through this module: the combinational
    cells, in topological order, become parallel [int array]s — an opcode,
    three input net ids and an output net per slot — so evaluating a gate
    is an integer [match] over the simulator's [bool array] of net values,
    with no per-gate allocation and no [Celllib.Kind.t] dispatch. Every
    malformed cell (wrong arity, [Filler], out-of-range net) is rejected by
    {!compile}, never on the first cycle. *)

type t = private {
  op : int array;       (** opcode per slot, see {!opcode} *)
  ins : int array;      (** stride 3: input nets of slot [s] at [3s..3s+2];
                            unused pins repeat pin 0 *)
  out : int array;      (** output net per slot *)
  slot : int array;     (** slot per cell id; -1 for flip-flops *)
  dff_q : int array;    (** Q net of each flip-flop, in cell-id order *)
  dff_d : int array;    (** D net of each flip-flop, aligned with [dff_q] *)
  pi : int array;       (** primary-input nets, aligned with input indices *)
}

val opcode : Celllib.Kind.t -> int
(** Tape opcode of a combinational kind. Raises [Invalid_argument] on
    [Dff] and [Filler], which have no combinational function. *)

val eval_op : int -> bool -> bool -> bool -> bool
(** [eval_op op a b c] applies opcode [op] to pins (a, b, c); pins beyond
    the kind's arity are ignored. Agrees with {!Celllib.Kind.eval}. *)

val compile : Netlist.Types.t -> t
(** Levelize the combinational cells (flip-flop outputs, primary inputs
    and constants are sources) and lay them out as a tape. Raises
    [Invalid_argument] on a cell whose input count differs from its
    kind's arity, on a [Filler] cell, on a net id out of range, or on a
    combinational loop. *)

val eval : t -> bool array -> int -> bool
(** [eval t values s] evaluates slot [s] over the per-net [values]. *)

val propagate : t -> bool array -> changed:(int -> bool -> unit) -> unit
(** Evaluate every slot in tape order over [values], writing each output
    net; [changed nid v] is called after net [nid] switched to [v]. *)

val settled_values : t -> Netlist.Types.t -> bool array
(** Power-up net values of the netlist [t] was compiled from: constants at
    their value, primary inputs and flip-flop outputs at 0, and the
    combinational logic settled in tape order, so a simulator's first
    cycle counts no pseudo-reset transitions. *)
