(** B&B search-tree reconstruction from a JSONL trace —
    [vpart_cli trace tree].

    The MIP solver emits, per node, a [mip.node] point (attrs [node],
    [depth], and [parent] below the root) followed by the node's outcome:
    a [mip.prune.*] / [mip.integral_leaf] counter (tagged with the same
    [node] attr), and possibly [mip.incumbent] / [mip.bound] points.
    Node ids are unique across the whole solve, whatever its [--jobs], so
    {!of_events} folds those back into the explicit tree: each edge comes
    from the child's [parent] attr.

    Exports: Graphviz DOT ({!to_dot}) and a JSON document ({!to_json})
    that {!of_json} reads back — [of_json (to_json t) = Ok t] exactly. *)

type node = {
  id : int;            (** the solver's 1-based visit index *)
  depth : int;
  parent : int option; (** [None] for the root *)
  ts : float;          (** timestamp of the [mip.node] point *)
  incumbent : float option;  (** objective if this node improved it *)
  bound : float option;      (** global bound reported at this node *)
  prune : string option;
      (** ["infeasible" | "bound" | "numerical" | "integral"] *)
}

type t = { nodes : node list (** in visit (id) order *) }

val of_events : (float * Obs.event) list -> t

val to_dot : t -> string
(** Graphviz digraph; nodes are labelled with id/depth/bound/incumbent
    and coloured by prune reason. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val pp : Format.formatter -> t -> unit
(** One line per node plus outcome tallies. *)
