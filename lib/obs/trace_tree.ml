(* B&B tree reconstruction from mip.node / mip.incumbent / mip.bound /
   mip.prune.* trace events; see the interface for the derivation
   contract. *)

type node = {
  id : int;
  depth : int;
  parent : int option;
  ts : float;
  incumbent : float option;
  bound : float option;
  prune : string option;
}

type t = { nodes : node list }

type bnode = {
  b_id : int;
  b_depth : int;
  b_parent : int option;
  b_ts : float;
  mutable b_incumbent : float option;
  mutable b_bound : float option;
  mutable b_prune : string option;
}

let int_attr attrs key =
  match List.assoc_opt key attrs with
  | Some (Obs.Int i) -> Some i
  | Some (Obs.Float f) -> Some (int_of_float f)
  | _ -> None

let float_attr attrs key =
  match List.assoc_opt key attrs with
  | Some (Obs.Float f) -> Some f
  | Some (Obs.Int i) -> Some (float_of_int i)
  | _ -> None

let prune_reason name =
  match name with
  | "mip.prune.infeasible" -> Some "infeasible"
  | "mip.prune.bound" -> Some "bound"
  | "mip.prune.numerical" -> Some "numerical"
  | "mip.integral_leaf" -> Some "integral"
  | _ -> None

let of_events events =
  let byid : (int, bnode) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let current = ref None in
  let node_of attrs =
    (* Events tagged with a node attr bind to that node; untagged ones
       (pre-PR-8 traces) fall back to the node most recently visited. *)
    match int_attr attrs "node" with
    | Some id when Hashtbl.mem byid id -> Hashtbl.find_opt byid id
    | Some _ -> None
    | None -> Option.bind !current (Hashtbl.find_opt byid)
  in
  List.iter
    (fun (ts, ev) ->
      match ev with
      | Obs.Point { name = "mip.node"; attrs } -> (
          match (int_attr attrs "node", int_attr attrs "depth") with
          | Some id, Some depth ->
              let b =
                {
                  b_id = id;
                  b_depth = depth;
                  b_parent = int_attr attrs "parent";
                  b_ts = ts;
                  b_incumbent = None;
                  b_bound = None;
                  b_prune = None;
                }
              in
              Hashtbl.replace byid id b;
              order := id :: !order;
              current := Some id
          | _ -> ())
      | Obs.Point { name = "mip.incumbent"; attrs } -> (
          match (node_of attrs, float_attr attrs "obj") with
          | Some b, Some obj -> b.b_incumbent <- Some obj
          | _ -> ())
      | Obs.Point { name = "mip.bound"; attrs } -> (
          match (node_of attrs, float_attr attrs "bound") with
          | Some b, Some bound -> b.b_bound <- Some bound
          | _ -> ())
      | Obs.Counter { name; attrs; _ } -> (
          match prune_reason name with
          | Some reason -> (
              match node_of attrs with
              | Some b when b.b_prune = None -> b.b_prune <- Some reason
              | _ -> ())
          | None -> ())
      | _ -> ())
    events;
  let nodes =
    List.rev_map
      (fun id ->
        let b = Hashtbl.find byid id in
        {
          id = b.b_id;
          depth = b.b_depth;
          parent = b.b_parent;
          ts = b.b_ts;
          incumbent = b.b_incumbent;
          bound = b.b_bound;
          prune = b.b_prune;
        })
      !order
  in
  { nodes }

let prune_color = function
  | Some "infeasible" -> "red"
  | Some "bound" -> "blue"
  | Some "numerical" -> "orange"
  | Some "integral" -> "darkgreen"
  | _ -> "black"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph bnb {\n";
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun n ->
      let label = Buffer.create 32 in
      Printf.bprintf label "#%d d%d" n.id n.depth;
      (match n.bound with
      | Some b -> Printf.bprintf label "\\nbound=%g" b
      | None -> ());
      (match n.incumbent with
      | Some o -> Printf.bprintf label "\\ninc=%g" o
      | None -> ());
      (match n.prune with
      | Some r -> Printf.bprintf label "\\n%s" r
      | None -> ());
      Printf.bprintf buf "  n%d [label=\"%s\", color=%s];\n" n.id
        (Buffer.contents label) (prune_color n.prune))
    t.nodes;
  List.iter
    (fun n ->
      match n.parent with
      | Some p -> Printf.bprintf buf "  n%d -> n%d;\n" p n.id
      | None -> ())
    t.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let opt_float = function Some f -> Json.Float f | None -> Json.Null
let opt_int = function Some i -> Json.Int i | None -> Json.Null
let opt_str = function Some s -> Json.String s | None -> Json.Null

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ( "nodes",
        Json.List
          (List.map
             (fun n ->
               Json.Obj
                 [
                   ("id", Json.Int n.id);
                   ("depth", Json.Int n.depth);
                   ("parent", opt_int n.parent);
                   ("ts", Json.Float n.ts);
                   ("incumbent", opt_float n.incumbent);
                   ("bound", opt_float n.bound);
                   ("prune", opt_str n.prune);
                 ])
             t.nodes) );
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let int_field obj key =
    match Json.member_opt key obj with
    | Some (Json.Int i) -> Ok i
    | Some (Json.Float f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "trace tree JSON: missing int field %S" key)
  in
  let opt_int_field obj key =
    match Json.member_opt key obj with
    | Some (Json.Int i) -> Ok (Some i)
    | Some Json.Null | None -> Ok None
    | _ -> Error (Printf.sprintf "trace tree JSON: bad field %S" key)
  in
  let opt_float_field obj key =
    match Json.member_opt key obj with
    | Some (Json.Float f) -> Ok (Some f)
    | Some (Json.Int i) -> Ok (Some (float_of_int i))
    | Some Json.Null | None -> Ok None
    | _ -> Error (Printf.sprintf "trace tree JSON: bad field %S" key)
  in
  let opt_str_field obj key =
    match Json.member_opt key obj with
    | Some (Json.String s) -> Ok (Some s)
    | Some Json.Null | None -> Ok None
    | _ -> Error (Printf.sprintf "trace tree JSON: bad field %S" key)
  in
  let node_of_json j =
    let* id = int_field j "id" in
    let* depth = int_field j "depth" in
    let* parent = opt_int_field j "parent" in
    let* ts =
      match opt_float_field j "ts" with
      | Ok (Some f) -> Ok f
      | Ok None -> Error "trace tree JSON: missing float field \"ts\""
      | Error e -> Error e
    in
    let* incumbent = opt_float_field j "incumbent" in
    let* bound = opt_float_field j "bound" in
    let* prune = opt_str_field j "prune" in
    Ok { id; depth; parent; ts; incumbent; bound; prune }
  in
  let* version =
    match Json.member_opt "schema_version" json with
    | Some (Json.Int v) -> Ok v
    | _ -> Error "trace tree JSON: missing schema_version"
  in
  let* () =
    if version = 1 then Ok ()
    else Error (Printf.sprintf "trace tree JSON: unknown schema_version %d" version)
  in
  let* nodes_json =
    match Json.member_opt "nodes" json with
    | Some (Json.List l) -> Ok l
    | _ -> Error "trace tree JSON: missing nodes array"
  in
  let* nodes =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* n = node_of_json j in
        Ok (n :: acc))
      (Ok []) nodes_json
  in
  Ok { nodes = List.rev nodes }

let pp ppf t =
  let tally r =
    List.length (List.filter (fun n -> n.prune = Some r) t.nodes)
  in
  Format.fprintf ppf
    "B&B tree: %d node(s) — integral %d, pruned by bound %d, infeasible %d, \
     numerical %d@."
    (List.length t.nodes) (tally "integral") (tally "bound")
    (tally "infeasible") (tally "numerical");
  List.iter
    (fun n ->
      Format.fprintf ppf "  #%-4d depth=%-3d parent=%-6s ts=%.6f" n.id n.depth
        (match n.parent with Some p -> "#" ^ string_of_int p | None -> "root")
        n.ts;
      (match n.bound with
      | Some b -> Format.fprintf ppf " bound=%g" b
      | None -> ());
      (match n.incumbent with
      | Some o -> Format.fprintf ppf " incumbent=%g" o
      | None -> ());
      (match n.prune with
      | Some r -> Format.fprintf ppf " [%s]" r
      | None -> ());
      Format.fprintf ppf "@.")
    t.nodes
