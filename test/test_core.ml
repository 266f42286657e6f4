(* Tests for the vpart core: schema, workload, stats, cost model,
   partitioning, grouping, codec. *)

open Vpart

(* ------------------------------------------------------------------ *)
(* Fixture: a tiny two-table instance with hand-computed constants      *)
(* ------------------------------------------------------------------ *)

(* T1(a0 w=4, a1 w=8), T2(b0 w=2).
   txn "t" = { q_read, q_write }
   q_read : read, freq 2, touches T1 (1 row), accesses a0
   q_write: write, freq 1, touches T1 and T2 (1 row each), writes a1.
   With p = 8:
     W(a0,qr) = 4*2*1 = 8     W(a1,qr) = 16
     W(a0,qw) = 4             W(a1,qw) = 8      W(b0,qw) = 2
     c1(t,a0) = 8             c1(t,a1) = 16 - 8*8 = -48    c1(t,b0) = 0
     c2(a0) = 4               c2(a1) = 8*(1+8) = 72        c2(b0) = 2
     c3(t,a0) = 8             c3(t,a1) = 16                c3(t,b0) = 0
     c4(a0) = 4               c4(a1) = 8                   c4(b0) = 2
     phi(t,a0) = true, others false. *)
let tiny () =
  let schema = Schema.make [ ("T1", [ ("a0", 4); ("a1", 8) ]); ("T2", [ ("b0", 2) ]) ] in
  let q_read =
    { Workload.q_name = "qr"; kind = Workload.Read; freq = 2.;
      tables = [ (0, 1.) ]; attrs = [ 0 ] }
  in
  let q_write =
    { Workload.q_name = "qw"; kind = Workload.Write; freq = 1.;
      tables = [ (0, 1.); (1, 1.) ]; attrs = [ 1 ] }
  in
  let wl =
    Workload.make ~queries:[ q_read; q_write ]
      ~transactions:[ { Workload.t_name = "t"; queries = [ 0; 1 ] } ]
  in
  Instance.make ~name:"tiny" schema wl

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_basic () =
  let inst = tiny () in
  let s = inst.Instance.schema in
  Alcotest.(check int) "tables" 2 (Schema.num_tables s);
  Alcotest.(check int) "attrs" 3 (Schema.num_attrs s);
  Alcotest.(check int) "width a1" 8 (Schema.attr_width s 1);
  Alcotest.(check string) "qualified name" "T1.a1" (Schema.attr_name s 1);
  Alcotest.(check int) "table of b0" 1 (Schema.table_of_attr s 2);
  Alcotest.(check (list int)) "attrs of T1" [ 0; 1 ] (Schema.attrs_of_table s 0);
  Alcotest.(check int) "row width T1" 12 (Schema.row_width s 0);
  Alcotest.(check int) "find attr" 2 (Schema.find_attr s "T2" "b0");
  Alcotest.(check int) "find table" 1 (Schema.find_table s "T2")

let test_schema_errors () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Schema.make [ ("T", [ ("a", 4) ]); ("T", [ ("b", 4) ]) ]);
  expect_invalid (fun () -> Schema.make [ ("T", [ ("a", 4); ("a", 8) ]) ]);
  expect_invalid (fun () -> Schema.make [ ("T", []) ]);
  expect_invalid (fun () -> Schema.make [ ("T", [ ("a", 0) ]) ]);
  (match Schema.find_table (Schema.make [ ("T", [ ("a", 1) ]) ]) "X" with
   | exception Not_found -> ()
   | _ -> Alcotest.fail "expected Not_found")

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_ownership () =
  let q =
    { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
      tables = [ (0, 1.) ]; attrs = [ 0 ] }
  in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* dangling query id *)
  expect_invalid (fun () ->
      Workload.make ~queries:[ q ]
        ~transactions:[ { Workload.t_name = "t"; queries = [ 1 ] } ]);
  (* query used twice *)
  expect_invalid (fun () ->
      Workload.make ~queries:[ q ]
        ~transactions:
          [ { Workload.t_name = "t1"; queries = [ 0 ] };
            { Workload.t_name = "t2"; queries = [ 0 ] } ]);
  (* orphan query *)
  expect_invalid (fun () ->
      Workload.make ~queries:[ q ] ~transactions:[]);
  let wl =
    Workload.make ~queries:[ q ]
      ~transactions:[ { Workload.t_name = "t"; queries = [ 0 ] } ]
  in
  Alcotest.(check int) "txn of query" 0 (Workload.txn_of_query wl 0)

let test_workload_validate () =
  let schema = Schema.make [ ("T1", [ ("a", 4) ]); ("T2", [ ("b", 4) ]) ] in
  let mk q = Workload.make ~queries:[ q ]
      ~transactions:[ { Workload.t_name = "t"; queries = [ 0 ] } ]
  in
  let bad_cases =
    [ (* attribute outside touched tables *)
      { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
        tables = [ (0, 1.) ]; attrs = [ 1 ] };
      (* non-positive frequency *)
      { Workload.q_name = "q"; kind = Workload.Read; freq = 0.;
        tables = [ (0, 1.) ]; attrs = [ 0 ] };
      (* non-positive row count *)
      { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
        tables = [ (0, -1.) ]; attrs = [ 0 ] };
      (* table id out of range *)
      { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
        tables = [ (7, 1.) ]; attrs = [ 0 ] };
      (* no attributes *)
      { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
        tables = [ (0, 1.) ]; attrs = [] };
    ]
  in
  List.iter
    (fun q ->
       match Workload.validate schema (mk q) with
       | Error _ -> ()
       | Ok () -> Alcotest.failf "expected validation error for %s" q.Workload.q_name)
    bad_cases;
  let good =
    { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
      tables = [ (0, 1.) ]; attrs = [ 0 ] }
  in
  match Workload.validate schema (mk good) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_hand_computed () =
  let inst = tiny () in
  let st = Stats.compute inst ~p:8. in
  feq "W(a0,qr)" 8. (Stats.w inst ~a:0 ~q:0);
  feq "W(a1,qr)" 16. (Stats.w inst ~a:1 ~q:0);
  feq "W(b0,qr)" 0. (Stats.w inst ~a:2 ~q:0);
  feq "W(b0,qw)" 2. (Stats.w inst ~a:2 ~q:1);
  feq "c1(t,a0)" 8. st.Stats.c1.{0, 0};
  feq "c1(t,a1)" (-48.) st.Stats.c1.{0, 1};
  feq "c1(t,b0)" 0. st.Stats.c1.{0, 2};
  feq "c2(a0)" 4. st.Stats.c2.(0);
  feq "c2(a1)" 72. st.Stats.c2.(1);
  feq "c2(b0)" 2. st.Stats.c2.(2);
  feq "c3(t,a0)" 8. st.Stats.c3.{0, 0};
  feq "c3(t,a1)" 16. st.Stats.c3.{0, 1};
  feq "c3(t,b0)" 0. st.Stats.c3.{0, 2};
  feq "c4(a0)" 4. st.Stats.c4.(0);
  feq "c4(a1)" 8. st.Stats.c4.(1);
  feq "c4(b0)" 2. st.Stats.c4.(2);
  Alcotest.(check bool) "phi(t,a0)" true st.Stats.phi.(0).(0);
  Alcotest.(check bool) "phi(t,a1)" false st.Stats.phi.(0).(1);
  Alcotest.(check bool) "phi(t,b0)" false st.Stats.phi.(0).(2)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_single_site () =
  let inst = tiny () in
  let st = Stats.compute inst ~p:8. in
  let part = Partitioning.single_site inst in
  (* cost = c1(t,a0)+c1(t,a1)+c1(t,b0) + c2 sums = (8 - 48 + 0) + 78 = 38 *)
  feq "cost (4)" 38. (Cost_model.cost st part);
  let b = Cost_model.breakdown inst part in
  feq "AR" 24. b.Cost_model.read_local;
  feq "AW" 14. b.Cost_model.write_local;
  feq "B" 0. b.Cost_model.transfer;
  feq "identity" (Cost_model.cost st part)
    (b.Cost_model.read_local +. b.Cost_model.write_local +. (8. *. b.Cost_model.transfer));
  (* work = c3 sums + c4 sums = 24 + 14 = 38 on the single site *)
  feq "site work" 38. (Cost_model.site_work st part).(0);
  feq "objective 6 at lambda 1" 38. (Cost_model.objective st ~lambda:1. part);
  feq "objective 6 at lambda 0" 38. (Cost_model.objective st ~lambda:0. part);
  feq "objective 6 mid" 38. (Cost_model.objective st ~lambda:0.3 part)

let test_cost_two_sites () =
  let inst = tiny () in
  let st = Stats.compute inst ~p:8. in
  (* txn on site 0 with a0; move a1 and b0 to site 1.
     cost = c1(t,a0) [a1,b0 not at home] + c2 sums (one replica each)
          = 8 + 78 = 86?  No: placing a1 remotely avoids its -48 benefit
     but keeps write costs; the model says remote a1 is WORSE here. *)
  let part = Partitioning.create ~num_sites:2 ~num_txns:1 ~num_attrs:3 in
  part.Partitioning.txn_site.(0) <- 0;
  part.Partitioning.placed.(0).(0) <- true;
  part.Partitioning.placed.(1).(1) <- true;
  part.Partitioning.placed.(2).(1) <- true;
  (match Partitioning.validate st part with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  feq "cost remote a1" 86. (Cost_model.cost st part);
  let b = Cost_model.breakdown inst part in
  (* AR: only a0's 8 at home.  AW unchanged (14).  B: a1 shipped = 8. *)
  feq "AR remote" 8. b.Cost_model.read_local;
  feq "AW remote" 14. b.Cost_model.write_local;
  feq "B remote" 8. b.Cost_model.transfer;
  feq "identity" 86. (8. +. 14. +. (8. *. 8.));
  (* co-locating a1 instead: cost = 38 (as single site, b0 remote costs
     nothing extra since it is not read and not updated) *)
  let part2 = Partitioning.copy part in
  part2.Partitioning.placed.(1).(0) <- true;
  part2.Partitioning.placed.(1).(1) <- false;
  feq "cost local a1" 38. (Cost_model.cost st part2);
  (* replicating a1 on both: write costs double and transfer appears:
     cost = 38 + c2(a1) = 38 + 72 = 110 *)
  let part3 = Partitioning.copy part2 in
  part3.Partitioning.placed.(1).(1) <- true;
  feq "cost replicated a1" 110. (Cost_model.cost st part3)

let test_latency () =
  let inst = tiny () in
  let part = Partitioning.create ~num_sites:2 ~num_txns:1 ~num_attrs:3 in
  part.Partitioning.txn_site.(0) <- 0;
  part.Partitioning.placed.(0).(0) <- true;
  part.Partitioning.placed.(1).(1) <- true;   (* updated attr, remote *)
  part.Partitioning.placed.(2).(0) <- true;
  feq "latency counts remote write" 3. (Cost_model.latency inst ~pl:3. part);
  part.Partitioning.placed.(1).(1) <- false;
  part.Partitioning.placed.(1).(0) <- true;
  feq "no remote, no latency" 0. (Cost_model.latency inst ~pl:3. part)

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)
(* ------------------------------------------------------------------ *)

let test_partitioning_validate () =
  let inst = tiny () in
  let st = Stats.compute inst ~p:8. in
  let part = Partitioning.create ~num_sites:2 ~num_txns:1 ~num_attrs:3 in
  (* nothing placed: coverage violated *)
  (match Partitioning.validate st part with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected coverage violation");
  (* place everything on site 1 but txn on site 0: phi(t,a0) broken *)
  Array.iter (fun row -> row.(1) <- true) part.Partitioning.placed;
  (match Partitioning.validate st part with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected single-sitedness violation");
  Partitioning.repair_single_sitedness st part;
  (match Partitioning.validate st part with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "a0 now at home" true part.Partitioning.placed.(0).(0);
  Alcotest.(check int) "a0 replicated" 2 (Partitioning.replicas part 0);
  Alcotest.(check bool) "not disjoint" false (Partitioning.is_disjoint part)

let test_partitioning_accessors () =
  let inst = tiny () in
  let part = Partitioning.single_site inst in
  Alcotest.(check (list int)) "attrs on site" [ 0; 1; 2 ]
    (Partitioning.attrs_on_site part 0);
  Alcotest.(check (list int)) "txns on site" [ 0 ] (Partitioning.txns_on_site part 0);
  Alcotest.(check bool) "disjoint" true (Partitioning.is_disjoint part);
  let c = Partitioning.copy part in
  Alcotest.(check bool) "copy equal" true (Partitioning.equal part c);
  c.Partitioning.placed.(0).(0) <- false;
  Alcotest.(check bool) "copy is deep" true part.Partitioning.placed.(0).(0)

(* ------------------------------------------------------------------ *)
(* Grouping                                                            *)
(* ------------------------------------------------------------------ *)

let test_grouping_tiny () =
  let inst = tiny () in
  let g = Grouping.compute inst in
  (* a0 and a1 have different signatures; b0 is alone *)
  Alcotest.(check int) "groups" 3 (Grouping.num_groups g);
  let schema =
    Schema.make
      [ ("T", [ ("k", 4); ("v1", 8); ("v2", 8); ("v3", 2) ]) ]
  in
  (* one read accessing k only: v1,v2,v3 share a signature *)
  let wl =
    Workload.make
      ~queries:
        [ { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
            tables = [ (0, 1.) ]; attrs = [ 0 ] } ]
      ~transactions:[ { Workload.t_name = "t"; queries = [ 0 ] } ]
  in
  let inst2 = Instance.make schema wl in
  let g2 = Grouping.compute inst2 in
  Alcotest.(check int) "v* fused" 2 (Grouping.num_groups g2);
  (* fused pseudo-attribute width = 18 *)
  let red = g2.Grouping.reduced in
  Alcotest.(check int) "fused width" 18
    (Schema.attr_width red.Instance.schema 1);
  (* cost preservation under expansion *)
  let st_red = Stats.compute red ~p:8. in
  let st_full = Stats.compute inst2 ~p:8. in
  let part_red = Partitioning.single_site red in
  let part_full = Grouping.expand g2 part_red in
  feq "grouped cost = expanded cost" (Cost_model.cost st_red part_red)
    (Cost_model.cost st_full part_full)

let test_grouping_roundtrip () =
  let inst = tiny () in
  let g = Grouping.compute inst in
  let part = Partitioning.single_site g.Grouping.reduced in
  let expanded = Grouping.expand g part in
  let restricted = Grouping.restrict g expanded in
  Alcotest.(check bool) "restrict (expand p) = p" true
    (Partitioning.equal part restricted)

(* The paper-class rndAt64x100 shape (64 tables, 1000+ attributes,
   hundreds of groups): [members] and [group_of_attr] are inverses, each
   group lists its members in ascending order within one table, and
   group ids follow table order (a group's first member rises with its
   id). *)
let test_grouping_members_generated () =
  let inst = Instance_gen.generate ~seed:1 (Instance_gen.find "rndAt64x100") in
  let schema = inst.Instance.schema in
  let g = Grouping.compute inst in
  let members = g.Grouping.members and group_of_attr = g.Grouping.group_of_attr in
  let seen = Array.make (Array.length group_of_attr) 0 in
  Array.iteri
    (fun gid ms ->
       if Array.length ms = 0 then Alcotest.failf "group %d is empty" gid;
       Array.iteri
         (fun i a ->
            seen.(a) <- seen.(a) + 1;
            if group_of_attr.(a) <> gid then
              Alcotest.failf "attribute %d in group %d maps to %d" a gid
                group_of_attr.(a);
            if i > 0 && ms.(i - 1) >= a then
              Alcotest.failf "group %d members not ascending" gid;
            if Schema.table_of_attr schema a <> Schema.table_of_attr schema ms.(0)
            then Alcotest.failf "group %d spans two tables" gid)
         ms;
       if gid > 0 && members.(gid - 1).(0) >= ms.(0) then
         Alcotest.failf "group %d does not follow table order" gid)
    members;
  Array.iteri
    (fun a n ->
       if n <> 1 then Alcotest.failf "attribute %d is a member %d times" a n)
    seen;
  if Grouping.num_groups g >= Array.length group_of_attr then
    Alcotest.fail "rndAt64x100 should fuse some attributes"

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let inst = tiny () in
  let json = Codec.instance_to_json inst in
  let inst' = Codec.instance_of_json (Json.of_string (Json.to_string json)) in
  Alcotest.(check string) "name" inst.Instance.name inst'.Instance.name;
  Alcotest.(check int) "attrs" (Instance.num_attrs inst) (Instance.num_attrs inst');
  (* semantic equality: same stats *)
  let st = Stats.compute inst ~p:8. and st' = Stats.compute inst' ~p:8. in
  feq "same c2" st.Stats.c2.(1) st'.Stats.c2.(1);
  feq "same c1" st.Stats.c1.{0, 1} st'.Stats.c1.{0, 1};
  (* file roundtrip *)
  let path = Filename.temp_file "vpart" ".json" in
  Codec.save_instance path inst;
  let inst'' = Codec.load_instance path in
  Sys.remove path;
  Alcotest.(check int) "file roundtrip attrs" 3 (Instance.num_attrs inst'')

let test_codec_errors () =
  let expect_invalid expected s =
    match Codec.instance_of_json (Json.of_string s) with
    | exception Invalid_argument msg ->
      Alcotest.(check string) "decode error" expected msg
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid {|Codec: "name" must be a string|}
    {| {"name": 3, "schema": [], "queries": [], "transactions": []} |};
  expect_invalid {|Codec: queries[0]: query "q": bad kind "scan"|}
    {| {"name": "x",
        "schema": [{"table": "T", "attrs": [{"name": "a", "width": 4}]}],
        "queries": [{"name": "q", "kind": "scan", "freq": 1,
                     "tables": [{"table": "T", "rows": 1}], "attrs": ["T.a"]}],
        "transactions": [{"name": "t", "queries": ["q"]}]} |};
  expect_invalid
    {|Codec: queries[0]: query "q": attrs[0]: unknown attribute "T.zz"|}
    {| {"name": "x",
        "schema": [{"table": "T", "attrs": [{"name": "a", "width": 4}]}],
        "queries": [{"name": "q", "kind": "read", "freq": 1,
                     "tables": [{"table": "T", "rows": 1}], "attrs": ["T.zz"]}],
        "transactions": [{"name": "t", "queries": ["q"]}]} |};
  expect_invalid
    {|Codec: schema[1]: table "U": attrs[0]: Json: expected integer, found string|}
    {| {"name": "x",
        "schema": [{"table": "T", "attrs": [{"name": "a", "width": 4}]},
                   {"table": "U", "attrs": [{"name": "b", "width": "w"}]}],
        "queries": [], "transactions": []} |};
  expect_invalid
    {|Codec: queries[0]: query "q": tables[0]: unknown table "V"|}
    {| {"name": "x",
        "schema": [{"table": "T", "attrs": [{"name": "a", "width": 4}]}],
        "queries": [{"name": "q", "kind": "read", "freq": 1,
                     "tables": [{"table": "V", "rows": 1}], "attrs": ["T.a"]}],
        "transactions": [{"name": "t", "queries": ["q"]}]} |};
  expect_invalid
    {|Codec: transactions[0]: transaction "t": queries[1]: unknown query "r"|}
    {| {"name": "x",
        "schema": [{"table": "T", "attrs": [{"name": "a", "width": 4}]}],
        "queries": [{"name": "q", "kind": "read", "freq": 1,
                     "tables": [{"table": "T", "rows": 1}], "attrs": ["T.a"]}],
        "transactions": [{"name": "t", "queries": ["q", "r"]}]} |}

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_instance_and_partitioning =
  let open QCheck2.Gen in
  let* seed = int_range 0 10_000 in
  let* num_tables = int_range 1 6 in
  let* num_txns = int_range 1 8 in
  let* num_sites = int_range 1 4 in
  return (seed, num_tables, num_txns, num_sites)

let build_random (seed, num_tables, num_txns, num_sites) =
  let params =
    { Instance_gen.default_params with
      Instance_gen.name = Printf.sprintf "prop%d" seed;
      num_tables;
      num_transactions = num_txns;
      max_attrs_per_table = 6;
      max_queries_per_txn = 3;
      update_percent = 30;
    }
  in
  let inst = Instance_gen.generate ~seed params in
  let stats = Stats.compute inst ~p:8. in
  let rng = Rng.create (seed + 7) in
  let part =
    Partitioning.create ~num_sites ~num_txns:(Instance.num_transactions inst)
      ~num_attrs:(Instance.num_attrs inst)
  in
  Array.iteri
    (fun t _ -> part.Partitioning.txn_site.(t) <- Rng.int rng num_sites)
    part.Partitioning.txn_site;
  Array.iter
    (fun row ->
       Array.iteri (fun s _ -> row.(s) <- Rng.bool rng 0.4) row)
    part.Partitioning.placed;
  Partitioning.repair_single_sitedness stats part;
  (inst, stats, part)

let prop_breakdown_identity =
  QCheck2.Test.make ~count:200
    ~name:"cost (4) = AR + AW + p*B on random instances/partitionings"
    gen_instance_and_partitioning
    (fun spec ->
       let inst, stats, part = build_random spec in
       let b = Cost_model.breakdown inst part in
       let lhs = Cost_model.cost stats part in
       let rhs =
         b.Cost_model.read_local +. b.Cost_model.write_local
         +. (8. *. b.Cost_model.transfer)
       in
       Float.abs (lhs -. rhs) <= 1e-6 *. (1. +. Float.abs lhs))

let prop_site_permutation_invariance =
  QCheck2.Test.make ~count:200 ~name:"cost invariant under site relabeling"
    gen_instance_and_partitioning
    (fun spec ->
       let _inst, stats, part = build_random spec in
       let ns = part.Partitioning.num_sites in
       (* rotate site labels by 1 *)
       let rot s = (s + 1) mod ns in
       let part' =
         {
           Partitioning.num_sites = ns;
           txn_site = Array.map rot part.Partitioning.txn_site;
           placed =
             Array.map
               (fun row -> Array.init ns (fun s -> row.((s + ns - 1) mod ns)))
               part.Partitioning.placed;
         }
       in
       let c = Cost_model.cost stats part and c' = Cost_model.cost stats part' in
       let w = Cost_model.max_site_work stats part
       and w' = Cost_model.max_site_work stats part' in
       Float.abs (c -. c') <= 1e-9 *. (1. +. Float.abs c)
       && Float.abs (w -. w') <= 1e-9 *. (1. +. Float.abs w))

let prop_grouping_preserves_cost =
  QCheck2.Test.make ~count:200 ~name:"grouping preserves cost under expansion"
    gen_instance_and_partitioning
    (fun (seed, num_tables, num_txns, num_sites) ->
       let params =
         { Instance_gen.default_params with
           Instance_gen.name = Printf.sprintf "grp%d" seed;
           num_tables;
           num_transactions = num_txns;
           max_attrs_per_table = 8;
         }
       in
       let inst = Instance_gen.generate ~seed params in
       let g = Grouping.compute inst in
       let red = g.Grouping.reduced in
       let st_red = Stats.compute red ~p:8. in
       let st_full = Stats.compute inst ~p:8. in
       let rng = Rng.create seed in
       let part =
         Partitioning.create ~num_sites
           ~num_txns:(Instance.num_transactions red)
           ~num_attrs:(Instance.num_attrs red)
       in
       Array.iteri
         (fun t _ -> part.Partitioning.txn_site.(t) <- Rng.int rng num_sites)
         part.Partitioning.txn_site;
       Array.iter
         (fun row -> Array.iteri (fun s _ -> row.(s) <- Rng.bool rng 0.4) row)
         part.Partitioning.placed;
       Partitioning.repair_single_sitedness st_red part;
       let expanded = Grouping.expand g part in
       let c_red = Cost_model.cost st_red part in
       let c_full = Cost_model.cost st_full expanded in
       let w_red = Cost_model.max_site_work st_red part in
       let w_full = Cost_model.max_site_work st_full expanded in
       Float.abs (c_red -. c_full) <= 1e-6 *. (1. +. Float.abs c_full)
       && Float.abs (w_red -. w_full) <= 1e-6 *. (1. +. Float.abs w_full))

let prop_repair_always_validates =
  QCheck2.Test.make ~count:200 ~name:"repair_single_sitedness yields valid partitioning"
    gen_instance_and_partitioning
    (fun spec ->
       let _inst, stats, part = build_random spec in
       match Partitioning.validate stats part with Ok () -> true | Error _ -> false)

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:50 ~name:"codec roundtrip preserves stats"
    gen_instance_and_partitioning
    (fun (seed, num_tables, num_txns, _) ->
       let params =
         { Instance_gen.default_params with
           Instance_gen.name = Printf.sprintf "codec%d" seed;
           num_tables;
           num_transactions = num_txns;
         }
       in
       let inst = Instance_gen.generate ~seed params in
       let inst' =
         Codec.instance_of_json
           (Json.of_string (Json.to_string (Codec.instance_to_json inst)))
       in
       let st = Stats.compute inst ~p:8. and st' = Stats.compute inst' ~p:8. in
       st.Stats.c2 = st'.Stats.c2 && st.Stats.c1 = st'.Stats.c1
       && st.Stats.phi = st'.Stats.phi)

let () =
  Alcotest.run "core"
    [ ("schema",
       [ Alcotest.test_case "basic" `Quick test_schema_basic;
         Alcotest.test_case "errors" `Quick test_schema_errors;
       ]);
      ("workload",
       [ Alcotest.test_case "ownership" `Quick test_workload_ownership;
         Alcotest.test_case "validate" `Quick test_workload_validate;
       ]);
      ("stats", [ Alcotest.test_case "hand computed" `Quick test_stats_hand_computed ]);
      ("cost model",
       [ Alcotest.test_case "single site" `Quick test_cost_single_site;
         Alcotest.test_case "two sites" `Quick test_cost_two_sites;
         Alcotest.test_case "latency" `Quick test_latency;
       ]);
      ("partitioning",
       [ Alcotest.test_case "validate/repair" `Quick test_partitioning_validate;
         Alcotest.test_case "accessors" `Quick test_partitioning_accessors;
       ]);
      ("grouping",
       [ Alcotest.test_case "tiny" `Quick test_grouping_tiny;
         Alcotest.test_case "roundtrip" `Quick test_grouping_roundtrip;
         Alcotest.test_case "members of a generated rndAt64x100" `Quick
           test_grouping_members_generated;
       ]);
      ("codec",
       [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
         Alcotest.test_case "errors" `Quick test_codec_errors;
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_breakdown_identity;
         QCheck_alcotest.to_alcotest prop_site_permutation_invariance;
         QCheck_alcotest.to_alcotest prop_grouping_preserves_cost;
         QCheck_alcotest.to_alcotest prop_repair_always_validates;
         QCheck_alcotest.to_alcotest prop_codec_roundtrip;
       ]);
    ]
