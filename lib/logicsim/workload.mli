(** Workload models: how busy each benchmark unit is.

    The paper controls "the size and position of hotspots using different
    workloads"; here a workload maps each unit tag to the per-cycle toggle
    probability of that unit's primary inputs. *)

type t

val uniform : float -> t
(** Every unit's inputs toggle with the same probability. *)

val make : default:float -> hot:(int * float) list -> t
(** [make ~default ~hot] toggles unit [tag] inputs with the probability
    bound in [hot], every other unit with [default]. Probabilities must lie
    in [\[0,1\]]. *)

val scattered_hotspots : hot_units:int list -> t
(** The paper's test set 1 shape: the listed units run at high activity
    (0.5 toggle probability), the rest nearly idle (0.02). *)

val concentrated_hotspot : hot_unit:int -> t
(** The paper's test set 2 shape: one unit fully active, the rest idle. *)

val activity : t -> tag:int -> float
(** Toggle probability for a unit tag (untagged inputs use the default). *)

val input_probs : t -> Netlist.Types.t -> float array
(** Toggle probability of every primary input, resolved once from its unit
    tag (aligned with [primary_inputs]). *)

val draw_flips : float array -> Geo.Rng.t -> flip:(int -> unit) -> unit
(** One cycle of stimulus: one Bernoulli draw per input, in input order,
    calling [flip k] for every input [k] whose draw fires. Both simulators
    drive through this, so they consume the random stream identically. *)

val run : t -> Sim.t -> Geo.Rng.t -> cycles:int -> unit
(** [cycles] times: stage one cycle of stimuli (every primary input flips
    with its unit's probability, see {!draw_flips}), then [Sim.step]. *)
