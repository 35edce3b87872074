(** Gate-level building blocks shared by the arithmetic generators.

    All functions instantiate library gates through a {!Netlist.Builder.t}
    and return the driven nets. Buses are [net_id array]s with index 0 as
    the least-significant bit. *)

type net = Netlist.Types.net_id

val inv : Netlist.Builder.t -> net -> net
val buf : Netlist.Builder.t -> net -> net
val and2 : Netlist.Builder.t -> net -> net -> net
val or2 : Netlist.Builder.t -> net -> net -> net
val xor2 : Netlist.Builder.t -> net -> net -> net
val xnor2 : Netlist.Builder.t -> net -> net -> net
val nor2 : Netlist.Builder.t -> net -> net -> net
val mux2 : Netlist.Builder.t -> a:net -> b:net -> sel:net -> net
(** [mux2 ~a ~b ~sel] is [a] when [sel]=0, [b] when [sel]=1. *)

val half_adder : Netlist.Builder.t -> net -> net -> net * net
(** [(sum, carry)]. *)

val full_adder : Netlist.Builder.t -> net -> net -> net -> net * net
(** [full_adder t a b cin] is [(sum, carry_out)], 5 library gates. *)

val and_reduce : Netlist.Builder.t -> net array -> net
(** Balanced AND tree; raises [Invalid_argument] on the empty bus. *)

val or_reduce : Netlist.Builder.t -> net array -> net

val xor_reduce : Netlist.Builder.t -> net array -> net

val mux2_bus : Netlist.Builder.t -> a:net array -> b:net array -> sel:net ->
  net array
(** Per-bit 2:1 mux over equal-width buses. *)

val register_bus : Netlist.Builder.t -> net array -> net array
(** One DFF per bit. *)

val inputs : Netlist.Builder.t -> prefix:string -> width:int -> net array
(** [width] fresh primary inputs named [prefix0..]. *)

val outputs : Netlist.Builder.t -> net array -> unit
(** Mark every bit as a primary output. *)
