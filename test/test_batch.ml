(* Batch solve service (ISSUE 10): ordered streaming emission, request
   accounting, JSONL response shape, and parity with one-off solves. *)

open Vpart

let tiny_params name =
  { Instance_gen.default_params with
    Instance_gen.name;
    num_tables = 3;
    num_transactions = 4;
  }

let collect ?jobs ?window ?options ~action count =
  let seq = Instance_gen.stream ~seed:7 ~count (tiny_params "batch-test") in
  let out = ref [] in
  let summary =
    Batch.run ?jobs ?window ?options ~action
      ~emit:(fun r -> out := r :: !out)
      seq
  in
  (List.rev !out, summary)

(* Responses must come back in submission order — index 0..n-1, names
   matching the streamed instances — even with a parallel pool, so the
   JSONL output is deterministic. *)
let test_ordered_emission () =
  let n = 23 in
  let responses, summary = collect ~jobs:2 ~window:5 ~action:Batch.Check n in
  Alcotest.(check int) "responses" n (List.length responses);
  Alcotest.(check int) "requests" n summary.Batch.requests;
  List.iteri
    (fun i r ->
       Alcotest.(check int) (Printf.sprintf "index %d" i) i r.Batch.index;
       Alcotest.(check string)
         (Printf.sprintf "name %d" i)
         (Printf.sprintf "batch-test#%d" i)
         r.Batch.name)
    responses

let test_check_clean () =
  let responses, summary = collect ~jobs:2 ~action:Batch.Check 10 in
  Alcotest.(check int) "no failures" 0 summary.Batch.failures;
  List.iter
    (fun r ->
       Alcotest.(check bool) "ok" true r.Batch.ok;
       Alcotest.(check string) "outcome" "clean" r.Batch.outcome;
       Alcotest.(check bool) "has cost" true (r.Batch.cost <> None);
       Alcotest.(check bool) "no error" true (r.Batch.error = None))
    responses;
  Alcotest.(check bool) "throughput positive" true
    (summary.Batch.throughput > 0.)

(* Solving through the batch service (pooled workspaces, worker domains)
   must reproduce the standalone Qp_solver result on the same instance. *)
let test_solve_matches_standalone () =
  let options = { Qp_solver.default_options with Qp_solver.time_limit = 10. } in
  let responses, summary =
    collect ~jobs:2 ~options ~action:Batch.Certify 4
  in
  Alcotest.(check int) "no failures" 0 summary.Batch.failures;
  List.iteri
    (fun i r ->
       let name = Printf.sprintf "batch-test#%d" i in
       let inst =
         Instance_gen.generate ~seed:(7 + i) (tiny_params name)
       in
       let standalone = Qp_solver.solve ~options inst in
       Alcotest.(check bool) "solved" true r.Batch.ok;
       Alcotest.(check string) "outcome" "optimal" r.Batch.outcome;
       match (r.Batch.objective6, standalone.Qp_solver.objective6) with
       | Some a, Some b ->
         Alcotest.(check (float 1e-9)) (name ^ " objective") b a
       | _ -> Alcotest.fail (name ^ ": missing objective"))
    responses

let test_empty_stream () =
  let responses, summary = collect ~action:Batch.Certify 0 in
  Alcotest.(check int) "no responses" 0 (List.length responses);
  Alcotest.(check int) "no requests" 0 summary.Batch.requests;
  Alcotest.(check int) "no failures" 0 summary.Batch.failures

(* A handler exception must surface as an "error" response and count as a
   failure without killing the run or breaking the emission order. *)
let test_error_isolation () =
  (* Bypass Instance.make's validation: a query touching attribute 3 of a
     one-attribute schema makes the solver raise out-of-bounds, which the
     service must convert into an "error" response. *)
  let schema = Schema.make [ ("T", [ ("a", 4) ]) ] in
  let workload =
    Workload.make
      ~queries:
        [ { Workload.q_name = "q"; kind = Workload.Read; freq = 1.;
            tables = [ (0, 1.) ]; attrs = [ 3 ] } ]
      ~transactions:[ { Workload.t_name = "t"; queries = [ 0 ] } ]
  in
  let bad = { Instance.name = "bad"; schema; workload } in
  let good = Instance_gen.generate ~seed:7 (tiny_params "good") in
  let seq = List.to_seq [ ("good0", good); ("bad", bad); ("good1", good) ] in
  let out = ref [] in
  let summary =
    Batch.run ~jobs:2 ~action:Batch.Certify
      ~emit:(fun r -> out := r :: !out)
      seq
  in
  let responses = List.rev !out in
  Alcotest.(check int) "requests" 3 summary.Batch.requests;
  Alcotest.(check (list int)) "ordered"
    [ 0; 1; 2 ]
    (List.map (fun r -> r.Batch.index) responses);
  let bad_r = List.nth responses 1 in
  Alcotest.(check bool) "bad not ok" false bad_r.Batch.ok;
  Alcotest.(check bool) "failures counted" true (summary.Batch.failures >= 1)

(* JSONL schema: every response serializes to an object with the eight
   documented fields, round-trippable through the codec. *)
let test_response_json_shape () =
  let responses, summary = collect ~action:Batch.Check 3 in
  List.iter
    (fun r ->
       let j =
         Json.of_string (Json.to_string ~minify:true (Batch.response_to_json r))
       in
       Alcotest.(check int) "index" r.Batch.index (Json.to_int (Json.member "index" j));
       Alcotest.(check string) "name" r.Batch.name (Json.to_str (Json.member "name" j));
       Alcotest.(check bool) "ok" r.Batch.ok (Json.to_bool (Json.member "ok" j));
       Alcotest.(check string) "outcome" r.Batch.outcome
         (Json.to_str (Json.member "outcome" j));
       Alcotest.(check bool) "seconds >= 0" true
         (Json.to_float (Json.member "seconds" j) >= 0.);
       Alcotest.(check bool) "error null" true (Json.member "error" j = Json.Null))
    responses;
  let s = Json.of_string (Json.to_string (Batch.summary_to_json summary)) in
  Alcotest.(check int) "summary requests" summary.Batch.requests
    (Json.to_int (Json.member "requests" s));
  Alcotest.(check bool) "summary has heap gauge" true
    (Json.to_int (Json.member "top_heap_words" s) > 0)

let test_action_strings () =
  List.iter
    (fun a ->
       match Batch.action_of_string (Batch.string_of_action a) with
       | Some a' -> Alcotest.(check bool) "round trip" true (a = a')
       | None -> Alcotest.fail "action string did not round-trip")
    [ Batch.Check; Batch.Certify ];
  Alcotest.(check bool) "unknown rejected" true
    (Batch.action_of_string "frobnicate" = None);
  Alcotest.(check bool) "no uncertified solve action" true
    (Batch.action_of_string "solve" = None)

let () =
  Alcotest.run "batch"
    [ ("service",
       [ Alcotest.test_case "ordered emission" `Quick test_ordered_emission;
         Alcotest.test_case "check is clean" `Quick test_check_clean;
         Alcotest.test_case "solve matches standalone" `Quick
           test_solve_matches_standalone;
         Alcotest.test_case "empty stream" `Quick test_empty_stream;
         Alcotest.test_case "error isolation" `Quick test_error_isolation;
         Alcotest.test_case "response json shape" `Quick
           test_response_json_shape;
         Alcotest.test_case "action strings" `Quick test_action_strings;
       ]);
    ]
