(** Imperative netlist construction.

    Generators create primary inputs and gates through a builder; [finish]
    freezes everything into an immutable {!Types.t} with fanout (sink) lists
    computed and structural invariants checked. *)

type t

val create : unit -> t

val set_unit_tag : t -> int -> unit
(** Tag attached to every cell and primary input created from now on;
    -1 (the initial value) means untagged. *)

val add_input : ?name:string -> t -> Types.net_id
(** Fresh primary input net. *)

val add_constant : t -> bool -> Types.net_id
(** Constant-driven net (deduplicated: at most one net per polarity). *)

val add_gate : ?name:string -> t -> Celllib.Kind.t -> Types.net_id array ->
  Types.net_id
(** [add_gate t kind inputs] instantiates a combinational gate and returns
    the net it drives. Raises [Invalid_argument] on arity mismatch, on
    sequential or filler kinds, or on dangling input ids. *)

val add_dff : ?name:string -> t -> d:Types.net_id -> Types.net_id
(** Instantiate a flip-flop; returns its Q net. *)

val add_dff_feedback : ?name:string -> t ->
  Types.net_id * (Types.net_id -> unit)
(** Flip-flop whose D pin is wired later: returns the Q net immediately and
    a one-shot connector for D. Needed for register feedback loops
    (accumulators); [finish] fails if any D is left unconnected. *)

val mark_output : t -> Types.net_id -> unit
(** Declare a net as a primary output (idempotent). *)

val num_cells : t -> int
val num_nets : t -> int

val finish : t -> Types.t
(** Freeze. Raises [Failure] if any net other than constants is undriven or
    if a combinational cycle exists (cycles through flip-flops are fine). *)
