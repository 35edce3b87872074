(** Filler-cell insertion.

    Both techniques fill the created whitespace with zero-power dummy cells
    that keep the power/ground rails electrically continuous (paper §III).
    Fillers exist only at the layout level — they are not netlist cells. *)

type filler = {
  f_row : int;
  f_site : int;
  f_kind : Celllib.Kind.t;  (** always a [Filler _] variant *)
}

val fill : Placement.t -> filler list
(** Cover every free site of every row with the fewest fillers from the
    library's width set (greedy, largest first). *)

val covers_all_gaps : Placement.t -> filler list -> bool
(** True when fillers plus cells tile every row exactly (the electrical
    continuity property). *)
