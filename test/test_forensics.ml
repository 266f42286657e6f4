(* Tests for the performance-forensics layer (PR 8): Profile span-path
   folding + flamegraph/speedscope exports, trace-diff verdicts,
   Trace_tree reconstruction and JSON round-trip, Trajectory CSV curves,
   Bench_compare regression gating, Obs.Metrics percentiles,
   Summary.to_json, and Obs.Reader behaviour on adversarial traces
   (per-line diagnostics and non-zero `trace summarize` exits, never an
   exception). *)

(* Astring is not a dependency; a tiny local substring check. *)
module Astring = struct
  module String = struct
    let is_infix ~affix s =
      let n = String.length affix and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
      n = 0 || go 0
  end
end

let parse name text =
  match Obs.Reader.read_string text with
  | Ok events -> events
  | Error e -> Alcotest.failf "%s: trace does not parse: %s" name e

let close_to name expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %g, got %g" name expected actual

(* ------------------------------------------------------------------ *)
(* Adversarial reader inputs                                           *)
(* ------------------------------------------------------------------ *)

let valid_line = {|{"v":1,"ts":0.0,"ev":"point","name":"x"}|}

let expect_line_error name ~line text =
  match Obs.Reader.read_string text with
  | Ok _ -> Alcotest.failf "%s: adversarial trace parsed" name
  | Error e ->
    let tag = Printf.sprintf "line %d" line in
    if not (Astring.String.is_infix ~affix:tag e) then
      Alcotest.failf "%s: diagnostic %S does not name %s" name e tag

let test_reader_truncated () =
  (* A trace whose final line was cut mid-write (crash, full disk): the
     diagnostic must name the offending line, not raise. *)
  expect_line_error "truncated" ~line:2
    (valid_line ^ "\n" ^ {|{"v":1,"ts":0.1,"ev":"poi|})

let test_reader_corrupt_mid () =
  expect_line_error "corrupt-mid" ~line:2
    (valid_line ^ "\n" ^ "not json at all\n" ^ valid_line)

let test_reader_unknown_kind () =
  match Obs.Reader.read_string {|{"v":1,"ts":0.0,"ev":"wat","name":"x"}|} with
  | Ok _ -> Alcotest.fail "unknown event kind parsed"
  | Error e ->
    if not (Astring.String.is_infix ~affix:"unknown event kind" e) then
      Alcotest.failf "diagnostic %S does not name the unknown kind" e

let test_reader_out_of_order_close () =
  (* Opens 1 then 2, closes 1 first: parses (each line is well-formed)
     but must fail the nesting check. *)
  let text =
    String.concat "\n"
      [
        {|{"v":1,"ts":0.0,"ev":"span_open","id":1,"name":"a"}|};
        {|{"v":1,"ts":0.1,"ev":"span_open","id":2,"name":"b","parent":1}|};
        {|{"v":1,"ts":0.2,"ev":"span_close","id":1,"name":"a","dur":0.2}|};
        {|{"v":1,"ts":0.3,"ev":"span_close","id":2,"name":"b","dur":0.2}|};
      ]
  in
  let events = parse "out-of-order" text in
  match Obs.Reader.check_nesting events with
  | Ok () -> Alcotest.fail "out-of-order span close passed check_nesting"
  | Error _ -> ()

(* The CLI contract for the same inputs: `trace summarize` exits non-zero
   with the diagnostic on stderr, never an exception trace. *)
let test_cli_summarize_exits_nonzero () =
  let cli = "../bin/vpart_cli.exe" in
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else
    List.iter
      (fun (name, text) ->
        let path = Filename.temp_file "vpart_forensics" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc text);
            let code =
              Sys.command
                (Printf.sprintf "%s trace summarize %s >/dev/null 2>&1"
                   (Filename.quote cli) (Filename.quote path))
            in
            if code = 0 then
              Alcotest.failf "trace summarize accepted %s trace" name))
      [
        ("truncated", valid_line ^ "\n" ^ {|{"v":1,"ts":0.1,"ev":"poi|});
        ("unknown-kind", {|{"v":1,"ts":0.0,"ev":"wat","name":"x"}|});
        ( "bad-nesting",
          String.concat "\n"
            [
              {|{"v":1,"ts":0.0,"ev":"span_open","id":1,"name":"a"}|};
              {|{"v":1,"ts":0.1,"ev":"span_open","id":2,"name":"b","parent":1}|};
              {|{"v":1,"ts":0.2,"ev":"span_close","id":1,"name":"a","dur":0.2}|};
              {|{"v":1,"ts":0.3,"ev":"span_close","id":2,"name":"b","dur":0.2}|};
            ] );
      ]

(* Out-of-range solver parameters are command-line errors: each
   invocation must exit non-zero, and not through an uncaught exception
   (cmdliner's exit 125, "internal error" on stderr). *)
let test_cli_rejects_bad_parameters () =
  let cli = "../bin/vpart_cli.exe" in
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else
    let inst = "../instances/smallbank.json" in
    List.iter
      (fun args ->
        let err = Filename.temp_file "vpart_forensics" ".stderr" in
        Fun.protect
          ~finally:(fun () -> Sys.remove err)
          (fun () ->
            let code =
              Sys.command
                (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote cli)
                   args (Filename.quote err))
            in
            let internal =
              Astring.String.is_infix ~affix:"internal error"
                (In_channel.with_open_bin err In_channel.input_all)
            in
            if code = 0 || code = 125 || internal then
              Alcotest.failf "`vpart %s` exited %d%s" args code
                (if internal then " with an internal error" else "")))
      [
        "solve -i " ^ inst ^ " -p nan --solver sa";
        "solve -i " ^ inst ^ " --sites 0 --solver sa";
        "solve -i " ^ inst ^ " --sites=-1 --solver sa";
        "solve -i " ^ inst ^ " --sites 0 --solver greedy";
        "solve -i " ^ inst ^ " --sites 0 --solver affinity";
        "solve -i " ^ inst ^ " --sites 0 --solver qp";
        "solve -i " ^ inst ^ " --sites 0 --solver iter";
        "solve -i " ^ inst ^ " --lambda nan --solver sa";
        "solve -i " ^ inst ^ " --lambda 2 --solver sa";
        "mps -i " ^ inst ^ " --sites 0";
        "analyze " ^ inst ^ " --sites 0";
        "batch --tables 0 --count 1";
        "batch --txns 0 --count 1";
        (* a NaN deadline never trips, so the solve would run unbounded *)
        "solve -i " ^ inst ^ " --solver qp --time-limit nan";
        "solve -i " ^ inst ^ " --solver qp --time-limit=-1";
        "certify --time-limit nan " ^ inst;
        "certify --time-limit=-1 " ^ inst;
        "batch --tables 2 --txns 2 --count 1 --time-limit nan";
      ]

(* Every solver's answer is certified without a flag, and with --json
   stdout carries the partitioning alone: the status lines, the
   certificate verdict and the exact report go to stderr, so stdout
   decodes as a partitioning of the instance.  With --exact every
   solver's report checks the objective-(6) claim as well as the cost. *)
let test_cli_solve_json_stdout () =
  let open Vpart in
  let cli = "../bin/vpart_cli.exe" in
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else
    let file = "../instances/smallbank.json" in
    let inst = Codec.load_instance file in
    let stats = Stats.compute inst ~p:8. in
    List.iter
      (fun solver ->
        let out = Filename.temp_file "vpart_forensics" ".json" in
        let err = Filename.temp_file "vpart_forensics" ".stderr" in
        Fun.protect
          ~finally:(fun () -> Sys.remove out; Sys.remove err)
          (fun () ->
            let code =
              Sys.command
                (Printf.sprintf "%s solve -i %s --solver %s --json --exact >%s 2>%s"
                   (Filename.quote cli) file solver (Filename.quote out)
                   (Filename.quote err))
            in
            let read f = In_channel.with_open_bin f In_channel.input_all in
            if code <> 0 then
              Alcotest.failf "solve --solver %s exited %d: %s" solver code
                (read err);
            let part =
              Codec.partitioning_of_json inst (Json.of_string (read out))
            in
            (match Partitioning.validate stats part with
             | Ok () -> ()
             | Error e -> Alcotest.failf "%s: %s" solver e);
            let stderr = read err in
            List.iter
              (fun affix ->
                if not (Astring.String.is_infix ~affix stderr) then
                  Alcotest.failf "%s: %S missing from stderr:\n%s" solver
                    affix stderr)
              [ "certificate: all claims verified"; "objective (6)";
                "cost (objective 4)" ]))
      [ "sa"; "qp"; "iter"; "greedy"; "affinity" ]

(* ------------------------------------------------------------------ *)
(* Profile: folding, folded stacks, speedscope                         *)
(* ------------------------------------------------------------------ *)

(* root [0,10] containing two child calls of 2s each and a counter fired
   while child was innermost. *)
let profile_fixture () =
  [
    (0.0, Obs.Span_open { id = 1; parent = None; name = "root"; attrs = [] });
    (1.0, Obs.Span_open { id = 2; parent = Some 1; name = "child"; attrs = [] });
    (2.0, Obs.Counter { name = "work"; add = 5.; attrs = [] });
    (3.0, Obs.Span_close { id = 2; name = "child"; dur = 2.0 });
    (4.0, Obs.Span_open { id = 3; parent = Some 1; name = "child"; attrs = [] });
    (6.0, Obs.Span_close { id = 3; name = "child"; dur = 2.0 });
    (10.0, Obs.Span_close { id = 1; name = "root"; dur = 10.0 });
  ]

let test_profile_fold () =
  let p = Profile.of_events (profile_fixture ()) in
  close_to "duration" 10.0 p.Profile.duration;
  close_to "total" 10.0 p.Profile.total;
  match p.Profile.roots with
  | [ root ] ->
    Alcotest.(check string) "root name" "root" root.Profile.name;
    Alcotest.(check int) "root calls" 1 root.Profile.calls;
    close_to "root total" 10.0 root.Profile.total;
    close_to "root self" 6.0 root.Profile.self;
    (match root.Profile.children with
     | [ child ] ->
       Alcotest.(check int) "child calls" 2 child.Profile.calls;
       close_to "child total" 4.0 child.Profile.total;
       close_to "child self" 4.0 child.Profile.self;
       Alcotest.(check (list (pair string (float 1e-9))))
         "counter attributed to innermost path" [ ("work", 5.) ]
         child.Profile.counters
     | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs))
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs)

let test_profile_folded_stacks () =
  let folded = Profile.to_folded (Profile.of_events (profile_fixture ())) in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  (* flamegraph.pl format: "path;to;span <self-microseconds>". *)
  Alcotest.(check (list string))
    "folded stacks"
    [ "root 6000000"; "root;child 4000000" ]
    lines

(* A minimal validator for the speedscope file-format schema
   (https://www.speedscope.app/file-format-schema.json): required
   members, evented profiles, frame indices in range, balanced and
   nested O/C events with non-decreasing timestamps. *)
let validate_speedscope json =
  let fail fmt = Alcotest.failf fmt in
  (match Json.member_opt "$schema" json with
   | Some (Json.String s)
     when s = "https://www.speedscope.app/file-format-schema.json" -> ()
   | _ -> fail "missing/incorrect $schema");
  let frames =
    match Json.member_opt "shared" json with
    | Some shared -> (
      match Json.member_opt "frames" shared with
      | Some (Json.List fs) ->
        List.iter
          (fun f ->
            match Json.member_opt "name" f with
            | Some (Json.String _) -> ()
            | _ -> fail "frame without a name")
          fs;
        List.length fs
      | _ -> fail "shared.frames missing")
    | None -> fail "shared missing"
  in
  match Json.member_opt "profiles" json with
  | Some (Json.List (_ :: _ as profiles)) ->
    List.iter
      (fun p ->
        (match Json.member_opt "type" p with
         | Some (Json.String "evented") -> ()
         | _ -> fail "profile type must be \"evented\"");
        (match Json.member_opt "unit" p with
         | Some (Json.String "seconds") -> ()
         | _ -> fail "profile unit must be \"seconds\"");
        let num = function
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> fail "profile start/endValue missing"
        in
        let startv = num (Json.member_opt "startValue" p) in
        let endv = num (Json.member_opt "endValue" p) in
        if startv > endv then fail "startValue > endValue";
        match Json.member_opt "events" p with
        | Some (Json.List events) ->
          let depth = ref 0 and last = ref startv in
          List.iter
            (fun e ->
              let at = num (Json.member_opt "at" e) in
              if at < !last then fail "event timestamps must be sorted";
              last := at;
              (match Json.member_opt "frame" e with
               | Some (Json.Int f) when f >= 0 && f < frames -> ()
               | _ -> fail "event frame index out of range");
              match Json.member_opt "type" e with
              | Some (Json.String "O") -> incr depth
              | Some (Json.String "C") ->
                decr depth;
                if !depth < 0 then fail "close without open"
              | _ -> fail "event type must be O or C")
            events;
          if !depth <> 0 then fail "unbalanced O/C events"
        | _ -> fail "profile events missing")
      profiles
  | _ -> fail "profiles missing or empty"

let test_speedscope_schema () =
  validate_speedscope (Profile.speedscope ~name:"fixture" (profile_fixture ()))

(* The real thing, not just the fixture: trace an actual MIP solve and
   schema-validate its speedscope rendering. *)
let test_speedscope_schema_real_trace () =
  let buf = Buffer.create 4096 in
  let sink = Obs.jsonl_sink (Buffer.add_string buf) in
  let m = Lp.create () in
  let v = Array.init 4 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m [ (1., v.(0)); (1., v.(1)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(2)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(0)); (1., v.(2)) ] Lp.Eq 1.;
  Lp.set_objective m Lp.Minimize
    [ (4., v.(0)); (1., v.(1)); (2., v.(2)); (9., v.(3)) ];
  let _ = Obs.with_sink sink (fun () -> Mip.solve m) in
  let events = parse "real trace" (Buffer.contents buf) in
  (match Obs.Reader.check_nesting events with
   | Ok () -> ()
   | Error e -> Alcotest.failf "real trace nesting: %s" e);
  validate_speedscope (Profile.speedscope events)

(* ------------------------------------------------------------------ *)
(* Trace diff: Bench_compare.compare_traces                            *)
(* ------------------------------------------------------------------ *)

let span_pair ?(counter = None) name dur =
  let open Obs in
  let evs =
    [
      (0.0, Span_open { id = 1; parent = None; name; attrs = [] });
      (dur, Span_close { id = 1; name; dur });
    ]
  in
  match counter with
  | None -> evs
  | Some (cname, add) ->
    [ List.hd evs; (dur /. 2., Counter { name = cname; add; attrs = [] }) ]
    @ [ List.nth evs 1 ]

let trace_diff base cur =
  Bench_compare.compare_traces ~baseline:base ~current:cur ()

let find_row report key =
  match
    List.find_opt
      (fun r -> r.Bench_compare.metric = key)
      report.Bench_compare.rows
  with
  | Some r -> r
  | None -> Alcotest.failf "diff report has no row for %S" key

let num_of = function
  | Some (Bench_compare.Num v) -> v
  | _ -> Alcotest.fail "expected a numeric value"

let test_diff_self_neutral () =
  let t = span_pair "phase" 1.0 ~counter:(Some ("c", 10.)) in
  let report = trace_diff t t in
  Alcotest.(check int) "regressions" 0 report.Bench_compare.regressions;
  Alcotest.(check int) "improvements" 0 report.Bench_compare.improvements

let test_diff_injected_slowdown () =
  (* 1.0s -> 2.0s on the same span path: +100% >> the 10% noise band. *)
  let report = trace_diff (span_pair "phase" 1.0) (span_pair "phase" 2.0) in
  let row = find_row report "span/seconds/phase" in
  (match row.Bench_compare.verdict with
   | Bench_compare.Regression -> ()
   | _ -> Alcotest.fail "injected slowdown not flagged as regression");
  (match row.Bench_compare.delta with
   | Some d -> close_to "delta" 1.0 d
   | None -> Alcotest.fail "span row has no delta");
  Alcotest.(check int) "regressions" 1 report.Bench_compare.regressions;
  (* And the mirror image is an improvement. *)
  let report' = trace_diff (span_pair "phase" 2.0) (span_pair "phase" 1.0) in
  Alcotest.(check int) "improvements" 1 report'.Bench_compare.improvements

let test_diff_noise_band () =
  (* +5% is inside the default 10% band: unchanged. *)
  let report = trace_diff (span_pair "phase" 1.0) (span_pair "phase" 1.05) in
  Alcotest.(check int) "regressions" 0 report.Bench_compare.regressions;
  (* +100% but only 0.1ms absolute: below the 1ms floor, unchanged. *)
  let report' = trace_diff (span_pair "phase" 1e-4) (span_pair "phase" 2e-4) in
  Alcotest.(check int) "tiny span regressions" 0
    report'.Bench_compare.regressions

let test_diff_one_sided_rows () =
  (* A span only in the current trace scores against an implicit zero. *)
  let base = span_pair "phase" 1.0 in
  let cur =
    span_pair "phase" 1.0
    @ [
        (2.0, Obs.Span_open { id = 9; parent = None; name = "extra"; attrs = [] });
        (3.0, Obs.Span_close { id = 9; name = "extra"; dur = 1.0 });
      ]
  in
  let report = trace_diff base cur in
  (match (find_row report "span/seconds/extra").Bench_compare.verdict with
   | Bench_compare.Regression -> ()
   | _ -> Alcotest.fail "new expensive span not flagged");
  let report' = trace_diff cur base in
  (match (find_row report' "span/seconds/extra").Bench_compare.verdict with
   | Bench_compare.Improvement -> ()
   | _ -> Alcotest.fail "disappeared span not an improvement");
  (* Zero-filled, never Missing: a trace diff can only fail on time. *)
  Alcotest.(check int) "missing" 0 report'.Bench_compare.missing

(* Counter totals gate lower-is-better; their event counts, like span
   calls, are informational. *)
let test_diff_counter_totals_gate () =
  let with_counter total = span_pair "phase" 1.0 ~counter:(Some ("c", total)) in
  let report = trace_diff (with_counter 10.) (with_counter 20.) in
  (match (find_row report "counter/total/c").Bench_compare.verdict with
   | Bench_compare.Regression -> ()
   | _ -> Alcotest.fail "counter total rising beyond the band not a regression");
  Alcotest.(check bool) "gate fails" false (Bench_compare.passed report);
  let report' = trace_diff (with_counter 20.) (with_counter 10.) in
  (match (find_row report' "counter/total/c").Bench_compare.verdict with
   | Bench_compare.Improvement -> ()
   | _ -> Alcotest.fail "counter total falling not an improvement");
  Alcotest.(check bool) "gate passes" true (Bench_compare.passed report');
  (* Inside the band: +5% is unchanged. *)
  let report'' = trace_diff (with_counter 20.) (with_counter 21.) in
  Alcotest.(check int) "inside band" 0 report''.Bench_compare.regressions;
  (* Twice the events at the same total: informational. *)
  let twice =
    span_pair "phase" 1.0 ~counter:(Some ("c", 5.))
    @ [ (1.5, Obs.Counter { name = "c"; add = 5.; attrs = [] }) ]
  in
  let report = trace_diff (with_counter 10.) twice in
  (match (find_row report "counter/events/c").Bench_compare.verdict with
   | Bench_compare.Changed -> ()
   | _ -> Alcotest.fail "counter event count should be informational");
  Alcotest.(check bool) "event count passes" true (Bench_compare.passed report)

(* Acceptance demo: two assignment models of one family, the larger one
   needing more pivots, so its updated basis factors grow past their
   refactorization limit more often — the diff must attribute the
   movement to the simplex.lu_refactor span path. *)
let test_diff_refactor_cadence_attributes_lu_refactor () =
  let solve_traced n =
    let buf = Buffer.create 4096 in
    let sink = Obs.jsonl_sink (Buffer.add_string buf) in
    let m = Lp.create () in
    let v = Array.init (n * n) (fun _ -> Lp.binary m ()) in
    for i = 0 to n - 1 do
      Lp.add_constr m (List.init n (fun j -> (1., v.((i * n) + j)))) Lp.Eq 1.;
      Lp.add_constr m (List.init n (fun j -> (1., v.((j * n) + i)))) Lp.Eq 1.
    done;
    Lp.set_objective m Lp.Minimize
      (Array.to_list
         (Array.mapi
            (fun k vk -> (float_of_int ((k * 7919 mod 23) + 1), vk))
            v));
    let _ = Obs.with_sink sink (fun () -> Mip.solve m) in
    parse "simplex trace" (Buffer.contents buf)
  in
  let small = solve_traced 6 and large = solve_traced 40 in
  let report = trace_diff small large in
  let refactor_rows =
    List.filter
      (fun r ->
        let key = r.Bench_compare.metric in
        String.starts_with ~prefix:"span/calls/" key
        && Astring.String.is_infix ~affix:"simplex.lu_refactor" key)
      report.Bench_compare.rows
  in
  (* The larger model refactorizes inside instrumented
     simplex.lu_refactor spans more often.  The diff must surface that
     span path so the delta is attributable. *)
  if refactor_rows = [] then
    Alcotest.fail "refactorization diff carries no simplex.lu_refactor row";
  List.iter
    (fun r ->
      if num_of r.Bench_compare.cur <= num_of r.Bench_compare.base then
        Alcotest.fail "the larger model should add refactor span calls")
    refactor_rows

(* ------------------------------------------------------------------ *)
(* Trace_tree                                                          *)
(* ------------------------------------------------------------------ *)

let tree_fixture () =
  let open Obs in
  [
    (0.1, Point { name = "mip.node"; attrs = [ ("node", Int 1); ("depth", Int 0) ] });
    (0.2, Point { name = "mip.incumbent"; attrs = [ ("obj", Float 7.5); ("node", Int 1) ] });
    (0.3, Point { name = "mip.bound"; attrs = [ ("bound", Float 5.0); ("node", Int 1) ] });
    (0.4, Point { name = "mip.node"; attrs = [ ("node", Int 2); ("depth", Int 1); ("parent", Int 1) ] });
    (0.5, Counter { name = "mip.prune.bound"; add = 1.; attrs = [ ("node", Int 2) ] });
    (0.6, Point { name = "mip.node"; attrs = [ ("node", Int 3); ("depth", Int 1); ("parent", Int 1) ] });
    (0.7, Counter { name = "mip.integral_leaf"; add = 1.; attrs = [ ("node", Int 3) ] });
  ]

let test_tree_reconstruction () =
  let t = Trace_tree.of_events (tree_fixture ()) in
  match t.Trace_tree.nodes with
  | [ n1; n2; n3 ] ->
    Alcotest.(check int) "root id" 1 n1.Trace_tree.id;
    Alcotest.(check (option int)) "root parent" None n1.Trace_tree.parent;
    Alcotest.(check (option (float 1e-9))) "root incumbent" (Some 7.5)
      n1.Trace_tree.incumbent;
    Alcotest.(check (option int)) "n2 parent" (Some 1) n2.Trace_tree.parent;
    Alcotest.(check (option string)) "n2 prune" (Some "bound")
      n2.Trace_tree.prune;
    Alcotest.(check (option int)) "n3 parent" (Some 1) n3.Trace_tree.parent;
    Alcotest.(check (option string)) "n3 prune" (Some "integral")
      n3.Trace_tree.prune
  | ns -> Alcotest.failf "expected 3 nodes, got %d" (List.length ns)

let test_tree_json_roundtrip () =
  let t = Trace_tree.of_events (tree_fixture ()) in
  (* Through the actual JSON text, not just the value tree: the CLI
     writes text and the reader parses text. *)
  let json = Json.of_string (Json.to_string (Trace_tree.to_json t)) in
  match Trace_tree.of_json json with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok t' ->
    if t <> t' then Alcotest.fail "tree JSON round-trip is not the identity"

let test_tree_dot () =
  let dot = Trace_tree.to_dot (Trace_tree.of_events (tree_fixture ())) in
  List.iter
    (fun affix ->
      if not (Astring.String.is_infix ~affix dot) then
        Alcotest.failf "DOT output missing %S" affix)
    [ "digraph bnb"; "n1 -> n2"; "n1 -> n3"; "darkgreen"; "bound=5" ]

let test_tree_from_real_solve_roundtrip () =
  let buf = Buffer.create 4096 in
  let sink = Obs.jsonl_sink (Buffer.add_string buf) in
  let m = Lp.create () in
  let v = Array.init 4 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m [ (1., v.(0)); (1., v.(1)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(2)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(0)); (1., v.(2)) ] Lp.Eq 1.;
  Lp.set_objective m Lp.Minimize
    [ (4., v.(0)); (1., v.(1)); (2., v.(2)); (9., v.(3)) ];
  let _ = Obs.with_sink sink (fun () -> Mip.solve m) in
  let events = parse "real mip trace" (Buffer.contents buf) in
  let t = Trace_tree.of_events events in
  if t.Trace_tree.nodes = [] then
    Alcotest.fail "real solve produced no tree nodes";
  let json = Json.of_string (Json.to_string (Trace_tree.to_json t)) in
  match Trace_tree.of_json json with
  | Ok t' when t = t' -> ()
  | Ok _ -> Alcotest.fail "real tree JSON round-trip is not the identity"
  | Error e -> Alcotest.failf "real tree round-trip failed: %s" e

(* A two-domain solve that reaches its dives: every node id is unique, and
   each non-root node's parent is an earlier node one level up. *)
let test_tree_jobs2_parents () =
  let buf = Buffer.create 65536 in
  let sink = Obs.jsonl_sink (Buffer.add_string buf) in
  let m = Lp.create () in
  (* a strongly correlated knapsack: value = weight + 10 *)
  let n = 20 in
  let v = Array.init n (fun _ -> Lp.binary m ()) in
  let weight i = float_of_int (20 + ((i * 37) mod 41)) in
  let value i = weight i +. 10. in
  Lp.add_constr m (List.init n (fun i -> (weight i, v.(i)))) Lp.Le 401.;
  Lp.set_objective m Lp.Maximize (List.init n (fun i -> (value i, v.(i))));
  let limits = { Mip.default_limits with Mip.gap = 1e-9 } in
  let _, stats = Obs.with_sink sink (fun () -> Mip.solve ~limits ~jobs:2 m) in
  let t = Trace_tree.of_events (parse "jobs-2 mip trace" (Buffer.contents buf)) in
  let nodes = t.Trace_tree.nodes in
  (* more nodes than the 4 * jobs frontier subtrees: the dives ran *)
  if stats.Mip.nodes <= 16 then
    Alcotest.failf "expected a search past the frontier, got %d nodes"
      stats.Mip.nodes;
  Alcotest.(check int) "one tree node per solver node" stats.Mip.nodes
    (List.length nodes);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun nd ->
      let open Trace_tree in
      if Hashtbl.mem seen nd.id then Alcotest.failf "node id %d repeats" nd.id;
      (match nd.parent with
       | None ->
         Alcotest.(check int) (Printf.sprintf "root #%d depth" nd.id) 0 nd.depth
       | Some p -> (
           match Hashtbl.find_opt seen p with
           | None -> Alcotest.failf "node #%d: parent #%d not seen before" nd.id p
           | Some pd ->
             Alcotest.(check int)
               (Printf.sprintf "node #%d one level below #%d" nd.id p)
               (pd + 1) nd.depth));
      Hashtbl.replace seen nd.id nd.depth)
    nodes;
  Alcotest.(check int) "one root" 1
    (List.length (List.filter (fun nd -> nd.Trace_tree.parent = None) nodes))

(* ------------------------------------------------------------------ *)
(* Trajectory                                                          *)
(* ------------------------------------------------------------------ *)

let test_trajectory_gap_csv () =
  Alcotest.(check string)
    "empty trace keeps the header" "ts,event,incumbent,bound,gap_pct\n"
    (Trajectory.gap_csv []);
  let open Obs in
  let events =
    [
      (1.0, Point { name = "mip.incumbent"; attrs = [ ("obj", Float 2.0) ] });
      (2.0, Point { name = "mip.bound"; attrs = [ ("bound", Float 1.0) ] });
    ]
  in
  match String.split_on_char '\n' (Trajectory.gap_csv events) with
  | [ _header; r1; r2; "" ] ->
    Alcotest.(check string) "incumbent row" "1,incumbent,2,," r1;
    (* gap = 100 * |2 - 1| / max(1, |2|) = 50 *)
    Alcotest.(check string) "bound row" "2,bound,2,1,50" r2
  | rows -> Alcotest.failf "unexpected CSV shape (%d rows)" (List.length rows)

let test_trajectory_sa_csv () =
  Alcotest.(check string)
    "empty trace keeps the header"
    "ts,epoch,temperature,accept_rate,best_obj,current_obj\n"
    (Trajectory.sa_csv []);
  let open Obs in
  let events =
    [
      ( 0.5,
        Point
          {
            name = "sa.epoch";
            attrs =
              [
                ("epoch", Int 3);
                ("temperature", Float 0.25);
                ("accept_rate", Float 0.5);
                ("best_obj", Float 10.0);
                ("current_obj", Float 12.0);
              ];
          } );
    ]
  in
  match String.split_on_char '\n' (Trajectory.sa_csv events) with
  | [ _header; row; "" ] ->
    Alcotest.(check string) "sa row" "0.5,3,0.25,0.5,10,12" row
  | rows -> Alcotest.failf "unexpected CSV shape (%d rows)" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Bench_compare                                                       *)
(* ------------------------------------------------------------------ *)

let bench_doc results =
  Json.Obj
    [
      ("schema_version", Json.Int Bench_compare.schema_version);
      ("provenance", Bench_compare.provenance_json ());
      ("config", Json.Obj [ ("p", Json.Float 8.0) ]);
      ("results", Json.Obj results);
    ]

let job metrics = Json.Obj metrics

let test_bench_self_comparison () =
  let doc =
    bench_doc
      [
        ( "perf/TPC-C",
          job
            [
              ("solve_seconds", Json.Float 0.5);
              ("nodes", Json.Int 61);
              ("nodes_per_second", Json.Float 122.0);
              ("certified", Json.Bool true);
            ] );
      ]
  in
  let report = Bench_compare.compare ~baseline:doc ~current:doc () in
  Alcotest.(check bool) "self passes" true (Bench_compare.passed report);
  Alcotest.(check int) "regressions" 0 report.Bench_compare.regressions;
  Alcotest.(check int) "missing" 0 report.Bench_compare.missing

let bench_verdict_of base cur metric =
  let report = Bench_compare.compare ~baseline:base ~current:cur () in
  match
    List.find_opt
      (fun r -> r.Bench_compare.metric = metric)
      report.Bench_compare.rows
  with
  | Some row -> (report, row.Bench_compare.verdict)
  | None -> Alcotest.failf "no row for %S" metric

let test_bench_injected_slowdown () =
  (* 0.1s -> 10s is far beyond the 50% band and the 5ms floor: the gate
     must flag REGRESSION and fail. *)
  let base = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 0.1) ]) ] in
  let cur = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 10.0) ]) ] in
  let report, verdict = bench_verdict_of base cur "results/perf/solve_seconds" in
  (match verdict with
   | Bench_compare.Regression -> ()
   | _ -> Alcotest.fail "injected slowdown not flagged REGRESSION");
  Alcotest.(check bool) "gate fails" false (Bench_compare.passed report);
  (* The same move in the good direction is an improvement, still a pass. *)
  let report', verdict' = bench_verdict_of cur base "results/perf/solve_seconds" in
  (match verdict' with
   | Bench_compare.Improvement -> ()
   | _ -> Alcotest.fail "speedup not flagged improvement");
  Alcotest.(check bool) "gate passes" true (Bench_compare.passed report')

let test_bench_direction_classes () =
  (* higher-is-better: throughput collapse is a regression. *)
  let base =
    bench_doc [ ("perf", job [ ("nodes_per_second", Json.Float 100.0) ]) ]
  in
  let cur =
    bench_doc [ ("perf", job [ ("nodes_per_second", Json.Float 10.0) ]) ]
  in
  let report, verdict = bench_verdict_of base cur "results/perf/nodes_per_second" in
  (match verdict with
   | Bench_compare.Regression -> ()
   | _ -> Alcotest.fail "throughput collapse not flagged");
  Alcotest.(check bool) "throughput gate fails" false
    (Bench_compare.passed report);
  (* informational: node counts move freely without gating. *)
  let base = bench_doc [ ("perf", job [ ("nodes", Json.Int 61) ]) ] in
  let cur = bench_doc [ ("perf", job [ ("nodes", Json.Int 2000) ]) ] in
  let report, verdict = bench_verdict_of base cur "results/perf/nodes" in
  (match verdict with
   | Bench_compare.Changed -> ()
   | _ -> Alcotest.fail "count change should be informational");
  Alcotest.(check bool) "count change passes" true (Bench_compare.passed report);
  (* booleans gate with zero tolerance. *)
  let base = bench_doc [ ("perf", job [ ("certified", Json.Bool true) ]) ] in
  let cur = bench_doc [ ("perf", job [ ("certified", Json.Bool false) ]) ] in
  let report, verdict = bench_verdict_of base cur "results/perf/certified" in
  (match verdict with
   | Bench_compare.Regression -> ()
   | _ -> Alcotest.fail "true->false not flagged");
  Alcotest.(check bool) "boolean gate fails" false (Bench_compare.passed report)

let test_bench_tolerance_band () =
  (* +20% is inside the default 50% band. *)
  let base = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 0.10) ]) ] in
  let cur = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 0.12) ]) ] in
  let report, _ = bench_verdict_of base cur "results/perf/solve_seconds" in
  Alcotest.(check bool) "inside band passes" true (Bench_compare.passed report);
  (* +300% but only 3ms absolute: under the 5ms floor, never gates. *)
  let base = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 0.001) ]) ] in
  let cur = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 0.004) ]) ] in
  let report, _ = bench_verdict_of base cur "results/perf/solve_seconds" in
  Alcotest.(check bool) "under floor passes" true (Bench_compare.passed report);
  (* A tightened band catches the same move. *)
  let options = { Bench_compare.tolerance_pct = 10.; abs_floor = 1e-6 } in
  let report =
    Bench_compare.compare ~options ~baseline:base ~current:cur ()
  in
  Alcotest.(check bool) "tight band fails" false (Bench_compare.passed report)

let test_bench_missing_and_new () =
  let base =
    bench_doc
      [ ("perf", job [ ("a_seconds", Json.Float 1.0); ("b_seconds", Json.Float 1.0) ]) ]
  in
  let cur =
    bench_doc
      [ ("perf", job [ ("a_seconds", Json.Float 1.0); ("c_seconds", Json.Float 1.0) ]) ]
  in
  let report = Bench_compare.compare ~baseline:base ~current:cur () in
  Alcotest.(check int) "missing" 1 report.Bench_compare.missing;
  Alcotest.(check int) "new" 1 report.Bench_compare.fresh;
  Alcotest.(check bool) "silently dropped metric fails" false
    (Bench_compare.passed report)

let test_bench_provenance () =
  let p = Bench_compare.provenance () in
  (match Bench_compare.provenance_of_json (Bench_compare.provenance_json ()) with
   | Some p' when p' = p -> ()
   | Some _ -> Alcotest.fail "provenance JSON round-trip mismatch"
   | None -> Alcotest.fail "provenance JSON does not read back");
  if p.Bench_compare.domains < 1 then Alcotest.fail "domains must be >= 1";
  (* ISO-8601 Zulu shape: YYYY-MM-DDTHH:MM:SSZ *)
  let ts = p.Bench_compare.generated_utc in
  if
    String.length ts <> 20
    || ts.[4] <> '-' || ts.[7] <> '-' || ts.[10] <> 'T' || ts.[13] <> ':'
    || ts.[16] <> ':' || ts.[19] <> 'Z'
  then Alcotest.failf "generated_utc %S is not ISO-8601 Zulu" ts;
  (* An unknown schema version warns but does not fail by itself. *)
  let v2 =
    Json.Obj
      [
        ("schema_version", Json.Int 999);
        ("results", Json.Obj [ ("perf", job [ ("solve_seconds", Json.Float 1.0) ]) ]);
      ]
  in
  let base = bench_doc [ ("perf", job [ ("solve_seconds", Json.Float 1.0) ]) ] in
  let report = Bench_compare.compare ~baseline:base ~current:v2 () in
  if report.Bench_compare.warnings = [] then
    Alcotest.fail "unknown schema version produced no warning";
  Alcotest.(check bool) "warning is not a failure" true
    (Bench_compare.passed report)

(* ------------------------------------------------------------------ *)
(* Metrics percentiles + Summary JSON                                  *)
(* ------------------------------------------------------------------ *)

let test_metrics_percentiles () =
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    (fun () ->
      Obs.Metrics.reset ();
      for i = 1 to 1000 do
        Obs.observe "lat" (float_of_int i)
      done;
      let snap = Obs.Metrics.snapshot () in
      match List.assoc_opt "lat" snap.Obs.Metrics.hists with
      | None -> Alcotest.fail "histogram not recorded"
      | Some h ->
        Alcotest.(check int) "count" 1000 h.Obs.Metrics.count;
        close_to "min" 1. h.Obs.Metrics.min;
        close_to "max" 1000. h.Obs.Metrics.max;
        (* log-bucketed estimates: worst-case relative error ~4.4%, use
           a 6% acceptance band. *)
        let within name expected actual =
          if Float.abs (actual -. expected) /. expected > 0.06 then
            Alcotest.failf "%s: %g not within 6%% of %g" name actual expected
        in
        within "p50" 500. h.Obs.Metrics.p50;
        within "p90" 900. h.Obs.Metrics.p90;
        within "p99" 990. h.Obs.Metrics.p99;
        if not (h.Obs.Metrics.p50 <= h.Obs.Metrics.p90) then
          Alcotest.fail "p50 > p90";
        if not (h.Obs.Metrics.p90 <= h.Obs.Metrics.p99) then
          Alcotest.fail "p90 > p99")

let test_metrics_percentiles_single_sample () =
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    (fun () ->
      Obs.Metrics.reset ();
      Obs.observe "one" 0.125;
      let snap = Obs.Metrics.snapshot () in
      match List.assoc_opt "one" snap.Obs.Metrics.hists with
      | None -> Alcotest.fail "histogram not recorded"
      | Some h ->
        (* Single sample: clamping to [min,max] makes every quantile
           exact. *)
        close_to "p50" 0.125 h.Obs.Metrics.p50;
        close_to "p90" 0.125 h.Obs.Metrics.p90;
        close_to "p99" 0.125 h.Obs.Metrics.p99;
        (* And the JSON rendering carries the percentile fields. *)
        let json = Obs.Metrics.to_json snap in
        match Json.member_opt "hists" json with
        | Some hists -> (
          match Json.member_opt "one" hists with
          | Some hj ->
            List.iter
              (fun k ->
                if Json.member_opt k hj = None then
                  Alcotest.failf "metrics JSON missing %S" k)
              [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ]
          | None -> Alcotest.fail "metrics JSON missing histogram")
        | None -> Alcotest.fail "metrics JSON missing hists")

let test_summary_to_json () =
  let text =
    String.concat "\n"
      [
        {|{"v":1,"ts":0.0,"ev":"span_open","id":1,"name":"mip.solve"}|};
        {|{"v":1,"ts":0.1,"ev":"point","name":"mip.incumbent","attrs":{"obj":7.5}}|};
        {|{"v":1,"ts":0.2,"ev":"counter","name":"mip.nodes","add":3}|};
        {|{"v":1,"ts":0.5,"ev":"span_close","id":1,"name":"mip.solve","dur":0.5}|};
      ]
  in
  let events = parse "summary fixture" text in
  let json = Obs.Summary.to_json (Obs.Summary.of_events events) in
  (* Parse back through the text form, as `trace summarize --format json`
     consumers will. *)
  let json = Json.of_string (Json.to_string json) in
  List.iter
    (fun k ->
      if Json.member_opt k json = None then
        Alcotest.failf "summary JSON missing %S" k)
    [
      "schema_version"; "events"; "duration_seconds"; "phases"; "counters";
      "gauges"; "points"; "incumbents"; "bounds"; "time_to_first_incumbent";
    ];
  (match Json.member_opt "events" json with
   | Some (Json.Int 4) -> ()
   | _ -> Alcotest.fail "summary JSON event count wrong");
  match Json.member_opt "phases" json with
  | Some phases -> (
    match Json.member_opt "mip.solve" phases with
    | Some phase -> (
      match Json.member_opt "total_seconds" phase with
      | Some (Json.Float t) -> close_to "phase total" 0.5 t
      | _ -> Alcotest.fail "phase total missing")
    | None -> Alcotest.fail "mip.solve phase missing")
  | None -> Alcotest.fail "phases missing"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "forensics"
    [
      ( "reader-adversarial",
        [
          Alcotest.test_case "truncated final line" `Quick test_reader_truncated;
          Alcotest.test_case "corrupt JSON mid-file" `Quick
            test_reader_corrupt_mid;
          Alcotest.test_case "unknown event kind" `Quick
            test_reader_unknown_kind;
          Alcotest.test_case "out-of-order span close" `Quick
            test_reader_out_of_order_close;
          Alcotest.test_case "CLI summarize exits non-zero" `Quick
            test_cli_summarize_exits_nonzero;
          Alcotest.test_case "CLI rejects bad parameters" `Quick
            test_cli_rejects_bad_parameters;
          Alcotest.test_case "CLI solve --json stdout is the partitioning"
            `Quick test_cli_solve_json_stdout;
        ] );
      ( "profile",
        [
          Alcotest.test_case "span-path folding" `Quick test_profile_fold;
          Alcotest.test_case "folded stacks" `Quick test_profile_folded_stacks;
          Alcotest.test_case "speedscope schema (fixture)" `Quick
            test_speedscope_schema;
          Alcotest.test_case "speedscope schema (real solve)" `Quick
            test_speedscope_schema_real_trace;
        ] );
      ( "trace-diff",
        [
          Alcotest.test_case "self-diff is neutral" `Quick
            test_diff_self_neutral;
          Alcotest.test_case "injected slowdown flagged" `Quick
            test_diff_injected_slowdown;
          Alcotest.test_case "noise band and floors" `Quick test_diff_noise_band;
          Alcotest.test_case "one-sided rows" `Quick test_diff_one_sided_rows;
          Alcotest.test_case "counter totals gate" `Quick
            test_diff_counter_totals_gate;
          Alcotest.test_case "refactor cadence attributes lu_refactor"
            `Quick test_diff_refactor_cadence_attributes_lu_refactor;
        ] );
      ( "trace-tree",
        [
          Alcotest.test_case "reconstruction" `Quick test_tree_reconstruction;
          Alcotest.test_case "JSON round-trip" `Quick test_tree_json_roundtrip;
          Alcotest.test_case "DOT export" `Quick test_tree_dot;
          Alcotest.test_case "real solve round-trip" `Quick
            test_tree_from_real_solve_roundtrip;
          Alcotest.test_case "unique ids and parents under --jobs 2" `Quick
            test_tree_jobs2_parents;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "gap CSV" `Quick test_trajectory_gap_csv;
          Alcotest.test_case "sa CSV" `Quick test_trajectory_sa_csv;
        ] );
      ( "bench-compare",
        [
          Alcotest.test_case "self-comparison passes" `Quick
            test_bench_self_comparison;
          Alcotest.test_case "injected slowdown REGRESSION" `Quick
            test_bench_injected_slowdown;
          Alcotest.test_case "direction classes" `Quick
            test_bench_direction_classes;
          Alcotest.test_case "tolerance band + floor" `Quick
            test_bench_tolerance_band;
          Alcotest.test_case "missing and new metrics" `Quick
            test_bench_missing_and_new;
          Alcotest.test_case "provenance" `Quick test_bench_provenance;
        ] );
      ( "metrics-summary",
        [
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "single-sample percentiles + JSON" `Quick
            test_metrics_percentiles_single_sample;
          Alcotest.test_case "summary to_json" `Quick test_summary_to_json;
        ] );
    ]
