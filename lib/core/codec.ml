let instance_to_json (inst : Instance.t) =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  let tables =
    List.init (Schema.num_tables schema) (fun tid ->
        Json.Obj
          [ ("table", Json.String (Schema.table_name schema tid));
            ( "attrs",
              Json.List
                (List.map
                   (fun a ->
                      Json.Obj
                        [ ( "name",
                            Json.String
                              schema.Schema.attributes.(a).Schema.attr_name );
                          ("width", Json.Int (Schema.attr_width schema a));
                        ])
                   (Schema.attrs_of_table schema tid)) );
          ])
  in
  let queries =
    List.init (Workload.num_queries wl) (fun qid ->
        let q = Workload.query wl qid in
        Json.Obj
          [ ("name", Json.String q.Workload.q_name);
            ( "kind",
              Json.String (if Workload.is_write q then "write" else "read") );
            ("freq", Json.Float q.Workload.freq);
            ( "tables",
              Json.List
                (List.map
                   (fun (tid, rows) ->
                      Json.Obj
                        [ ("table", Json.String (Schema.table_name schema tid));
                          ("rows", Json.Float rows);
                        ])
                   q.Workload.tables) );
            ( "attrs",
              Json.List
                (List.map
                   (fun a -> Json.String (Schema.attr_name schema a))
                   q.Workload.attrs) );
          ])
  in
  let transactions =
    List.init (Workload.num_transactions wl) (fun tid ->
        let t = Workload.transaction wl tid in
        Json.Obj
          [ ("name", Json.String t.Workload.t_name);
            ( "queries",
              Json.List
                (List.map
                   (fun qid ->
                      Json.String (Workload.query wl qid).Workload.q_name)
                   t.Workload.queries) );
          ])
  in
  Json.Obj
    [ ("name", Json.String inst.Instance.name);
      ("schema", Json.List tables);
      ("queries", Json.List queries);
      ("transactions", Json.List transactions);
    ]

(* Prefix decode failures with the offending element's position so a bad
   field in a long instance file is locatable ("Codec: queries[17]: ...").
   The prefix is only written when the decode fails. *)
let in_ctx ctx f =
  try f () with Invalid_argument msg -> invalid_arg (ctx () ^ ": " ^ msg)

let instance_of_json json =
  let name =
    match Json.member "name" json with
    | Json.String s -> s
    | Json.Null -> "instance"
    | _ -> invalid_arg "Codec: \"name\" must be a string"
  in
  let schema_spec =
    List.mapi
      (fun i tbl ->
         in_ctx (fun () -> Printf.sprintf "Codec: schema[%d]" i) @@ fun () ->
         let tname = Json.(to_str (member "table" tbl)) in
         let attrs =
           List.mapi
             (fun j a ->
                in_ctx (fun () -> Printf.sprintf "table %S: attrs[%d]" tname j)
                @@ fun () ->
                (Json.(to_str (member "name" a)), Json.(to_int (member "width" a))))
             Json.(to_list (member "attrs" tbl))
         in
         (tname, attrs))
      Json.(to_list (member "schema" json))
  in
  let schema = Schema.make schema_spec in
  let split_qualified s =
    match String.index_opt s '.' with
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None ->
      invalid_arg
        (Printf.sprintf "attribute %S is not qualified (expected \"Table.ATTR\")" s)
  in
  let queries_json = Json.(to_list (member "queries" json)) in
  let query_index = Hashtbl.create 16 in
  let queries =
    List.mapi
      (fun i qj ->
         in_ctx (fun () -> Printf.sprintf "Codec: queries[%d]" i) @@ fun () ->
         let qname = Json.(to_str (member "name" qj)) in
         Hashtbl.replace query_index qname i;
         let kind =
           match Json.(to_str (member "kind" qj)) with
           | "read" -> Workload.Read
           | "write" -> Workload.Write
           | k -> invalid_arg (Printf.sprintf "query %S: bad kind %S" qname k)
         in
         let tables =
           List.mapi
             (fun j tj ->
                in_ctx (fun () -> Printf.sprintf "query %S: tables[%d]" qname j)
                @@ fun () ->
                let tname = Json.(to_str (member "table" tj)) in
                let tid =
                  try Schema.find_table schema tname
                  with Not_found ->
                    invalid_arg (Printf.sprintf "unknown table %S" tname)
                in
                (tid, Json.(to_float (member "rows" tj))))
             Json.(to_list (member "tables" qj))
         in
         let attrs =
           List.mapi
             (fun j aj ->
                in_ctx (fun () -> Printf.sprintf "query %S: attrs[%d]" qname j)
                @@ fun () ->
                let full = Json.to_str aj in
                let t, a = split_qualified full in
                try Schema.find_attr schema t a
                with Not_found ->
                  invalid_arg (Printf.sprintf "unknown attribute %S" full))
             Json.(to_list (member "attrs" qj))
         in
         {
           Workload.q_name = qname;
           kind;
           freq = Json.(to_float (member "freq" qj));
           tables;
           attrs;
         })
      queries_json
  in
  let transactions =
    List.mapi
      (fun i tj ->
         in_ctx (fun () -> Printf.sprintf "Codec: transactions[%d]" i)
         @@ fun () ->
         let tname = Json.(to_str (member "name" tj)) in
         let qids =
           List.mapi
             (fun j qj ->
                in_ctx (fun () ->
                    Printf.sprintf "transaction %S: queries[%d]" tname j)
                @@ fun () ->
                let qname = Json.to_str qj in
                match Hashtbl.find_opt query_index qname with
                | Some i -> i
                | None -> invalid_arg (Printf.sprintf "unknown query %S" qname))
             Json.(to_list (member "queries" tj))
         in
         { Workload.t_name = tname; queries = qids })
      Json.(to_list (member "transactions" json))
  in
  Instance.make ~name schema (Workload.make ~queries ~transactions)

let load_instance path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  instance_of_json (Json.of_string content)

let save_instance path inst =
  let oc = open_out_bin path in
  output_string oc (Json.to_string (instance_to_json inst));
  output_string oc "\n";
  close_out oc

let partitioning_of_json (inst : Instance.t) json =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  let num_sites = Json.(to_int (member "num_sites" json)) in
  let part =
    Partitioning.create ~num_sites
      ~num_txns:(Workload.num_transactions wl)
      ~num_attrs:(Schema.num_attrs schema)
  in
  let txn_index = Hashtbl.create 8 in
  for t = 0 to Workload.num_transactions wl - 1 do
    Hashtbl.replace txn_index (Workload.transaction wl t).Workload.t_name t
  done;
  let assigned = Array.make (Workload.num_transactions wl) false in
  List.iteri
    (fun i site_json ->
       in_ctx (fun () -> Printf.sprintf "Codec: sites[%d]" i) @@ fun () ->
       let s = Json.(to_int (member "site" site_json)) in
       if s < 0 || s >= num_sites then
         invalid_arg
           (Printf.sprintf "site %d out of range 0..%d" s (num_sites - 1));
       List.iteri
         (fun j tj ->
            in_ctx (fun () -> Printf.sprintf "transactions[%d]" j) @@ fun () ->
            let name = Json.to_str tj in
            match Hashtbl.find_opt txn_index name with
            | Some t ->
              part.Partitioning.txn_site.(t) <- s;
              assigned.(t) <- true
            | None -> invalid_arg (Printf.sprintf "unknown transaction %S" name))
         Json.(to_list (member "transactions" site_json));
       List.iteri
         (fun j aj ->
            in_ctx (fun () -> Printf.sprintf "attributes[%d]" j) @@ fun () ->
            let full = Json.to_str aj in
            match String.index_opt full '.' with
            | None ->
              invalid_arg
                (Printf.sprintf "attribute %S is not qualified (expected \
                                 \"Table.ATTR\")" full)
            | Some i ->
              let tname = String.sub full 0 i
              and aname = String.sub full (i + 1) (String.length full - i - 1) in
              (match Schema.find_attr schema tname aname with
               | a -> part.Partitioning.placed.(a).(s) <- true
               | exception Not_found ->
                 invalid_arg (Printf.sprintf "unknown attribute %S" full)))
         Json.(to_list (member "attributes" site_json)))
    Json.(to_list (member "sites" json));
  Array.iteri
    (fun t ok ->
       if not ok then
         invalid_arg
           (Printf.sprintf "Codec: transaction %S assigned to no site"
              (Workload.transaction wl t).Workload.t_name))
    assigned;
  part

let load_partitioning inst path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  partitioning_of_json inst (Json.of_string content)

let partitioning_to_json (inst : Instance.t) (part : Partitioning.t) =
  let schema = inst.Instance.schema and wl = inst.Instance.workload in
  let sites =
    List.init part.Partitioning.num_sites (fun s ->
        Json.Obj
          [ ("site", Json.Int s);
            ( "transactions",
              Json.List
                (List.map
                   (fun t ->
                      Json.String (Workload.transaction wl t).Workload.t_name)
                   (Partitioning.txns_on_site part s)) );
            ( "attributes",
              Json.List
                (List.map
                   (fun a -> Json.String (Schema.attr_name schema a))
                   (Partitioning.attrs_on_site part s)) );
          ])
  in
  Json.Obj
    [ ("instance", Json.String inst.Instance.name);
      ("num_sites", Json.Int part.Partitioning.num_sites);
      ("sites", Json.List sites);
    ]
