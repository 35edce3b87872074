(** Structural sanity checks over a frozen netlist. *)

type issue =
  | Arity_mismatch of Types.cell_id
  | Driver_inconsistent of Types.net_id
  | Dangling_net of Types.net_id   (** no driver reference resolves back *)
  | Floating_net of Types.net_id   (** no sinks and not a primary output *)

val run : Types.t -> issue list
(** All detected issues; the empty list means the netlist is well-formed.
    [Floating_net] is a warning-grade issue (a generator may legitimately
    leave an unused carry-out), the others indicate corruption. *)

val is_well_formed : Types.t -> bool
(** No corruption-grade issues (floating nets are tolerated). *)
