(* Tests for the observability layer (Vpart_obs.Obs): JSONL schema
   round-trips, span-nesting well-formedness, the no-op-sink invariance
   contract (instrumentation must not change solver results), metrics
   aggregation, and determinism of `trace summarize` for a fixed seed. *)

open Vpart

let exact_limits =
  { Mip.default_limits with Mip.gap = 1e-9; time_limit = Some 30. }

(* Same 2x2 assignment problem as test_certify: small, deterministic,
   branches at least once so the trace carries node/incumbent events. *)
let assignment_model () =
  let m = Lp.create () in
  let v = Array.init 4 (fun _ -> Lp.binary m ()) in
  Lp.add_constr m [ (1., v.(0)); (1., v.(1)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(2)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(0)); (1., v.(2)) ] Lp.Eq 1.;
  Lp.add_constr m [ (1., v.(1)); (1., v.(3)) ] Lp.Eq 1.;
  Lp.set_objective m Lp.Minimize
    [ (4., v.(0)); (1., v.(1)); (2., v.(2)); (9., v.(3)) ];
  m

(* Solve under a buffer-backed JSONL sink; return the raw trace text
   together with the solver's outcome and stats. *)
let traced_mip_solve () =
  let buf = Buffer.create 4096 in
  let sink = Obs.jsonl_sink (Buffer.add_string buf) in
  let out, stats =
    Obs.with_sink sink (fun () ->
        Mip.solve ~limits:exact_limits (assignment_model ()))
  in
  (Buffer.contents buf, out, stats)

let parse_trace name text =
  match Obs.Reader.read_string text with
  | Ok events -> events
  | Error e -> Alcotest.failf "%s: trace does not parse: %s" name e

let counter_sum name events =
  List.fold_left
    (fun acc (_, ev) ->
      match ev with
      | Obs.Counter { name = n; add; _ } when n = name -> acc +. add
      | _ -> acc)
    0. events

(* ------------------------------------------------------------------ *)
(* Schema round-trip                                                   *)
(* ------------------------------------------------------------------ *)

(* Every event constructor survives to_json -> event_of_json exactly. *)
let test_event_roundtrip () =
  let attrs =
    [ ("i", Obs.Int 42); ("f", Obs.Float 0.125); ("b", Obs.Bool true);
      ("s", Obs.Str "x \"y\"\n") ]
  in
  let events =
    [ Obs.Span_open { id = 1; parent = None; name = "root"; attrs };
      Obs.Span_open { id = 2; parent = Some 1; name = "child"; attrs = [] };
      Obs.Span_close { id = 2; name = "child"; dur = 0.5 };
      Obs.Counter { name = "c"; add = 3.; attrs };
      Obs.Gauge { name = "g"; value = -1.25; attrs = [] };
      Obs.Point { name = "p"; attrs = [ ("obj", Obs.Float 7.) ] };
      Obs.Span_close { id = 1; name = "root"; dur = 1. } ]
  in
  List.iteri
    (fun i ev ->
      let ts = 0.25 *. float_of_int i in
      match Obs.Reader.event_of_json (Obs.event_to_json ~ts ev) with
      | Ok (ts', ev') ->
        Alcotest.(check (float 0.)) "ts" ts ts';
        if ev' <> ev then Alcotest.failf "event %d changed in round-trip" i
      | Error e -> Alcotest.failf "event %d rejected: %s" i e)
    events

let test_reader_rejects_malformed () =
  let bad what line =
    match Obs.Reader.read_string line with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  bad "future schema version"
    {|{"v":2,"ev":"point","ts":0.0,"name":"p","attrs":{}}|};
  bad "unknown event kind" {|{"v":1,"ev":"blorp","ts":0.0,"name":"p"}|};
  bad "missing ts" {|{"v":1,"ev":"point","name":"p","attrs":{}}|};
  bad "non-object line" {|[1,2,3]|};
  bad "counter without add" {|{"v":1,"ev":"counter","ts":0.0,"name":"c"}|}

(* ------------------------------------------------------------------ *)
(* Real traces: schema-valid, well-nested                              *)
(* ------------------------------------------------------------------ *)

let test_trace_parses_and_nests () =
  let text, _, _ = traced_mip_solve () in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let events = parse_trace "mip" text in
  Alcotest.(check int) "every line is an event" (List.length lines)
    (List.length events);
  (match Obs.Reader.check_nesting events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "span nesting broken: %s" e);
  (* Timestamps are non-decreasing (Clock monotonicity as observed
     through the sink). *)
  let rec mono = function
    | (a, _) :: ((b, _) :: _ as tl) ->
      if a > b then Alcotest.failf "timestamps decrease: %g > %g" a b;
      mono tl
    | _ -> ()
  in
  mono events

let test_nesting_violations_detected () =
  let expect_error what events =
    match Obs.Reader.check_nesting (List.map (fun e -> (0., e)) events) with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  expect_error "orphan close" [ Obs.Span_close { id = 7; name = "x"; dur = 0. } ];
  expect_error "unclosed span"
    [ Obs.Span_open { id = 1; parent = None; name = "x"; attrs = [] } ];
  expect_error "close out of order"
    [ Obs.Span_open { id = 1; parent = None; name = "a"; attrs = [] };
      Obs.Span_open { id = 2; parent = Some 1; name = "b"; attrs = [] };
      Obs.Span_close { id = 1; name = "a"; dur = 0. };
      Obs.Span_close { id = 2; name = "b"; dur = 0. } ];
  expect_error "parent not open"
    [ Obs.Span_open { id = 1; parent = Some 99; name = "a"; attrs = [] };
      Obs.Span_close { id = 1; name = "a"; dur = 0. } ]

(* ------------------------------------------------------------------ *)
(* Trace counters carry exactly the returned stats                     *)
(* ------------------------------------------------------------------ *)

let test_counters_match_stats () =
  let text, _, stats = traced_mip_solve () in
  let events = parse_trace "mip" text in
  Alcotest.(check (float 0.)) "mip.nodes counter = stats.nodes"
    (float_of_int stats.Mip.nodes)
    (counter_sum "mip.nodes" events);
  Alcotest.(check (float 0.))
    "mip.simplex_iterations counter = stats.simplex_iterations"
    (float_of_int stats.Mip.simplex_iterations)
    (counter_sum "mip.simplex_iterations" events)

(* ------------------------------------------------------------------ *)
(* No-op sink leaves solver results bit-identical                      *)
(* ------------------------------------------------------------------ *)

let test_noop_sink_invariance () =
  let solve () = Mip.solve ~limits:exact_limits (assignment_model ()) in
  let out_off, stats_off = solve () in
  let out_null, stats_null =
    Obs.with_sink (Obs.null_sink ()) (fun () ->
        Obs.Metrics.reset ();
        Obs.Metrics.enable ();
        Fun.protect ~finally:Obs.Metrics.disable solve)
  in
  if out_off <> out_null then
    Alcotest.fail "outcome differs under null sink";
  Alcotest.(check int) "nodes" stats_off.Mip.nodes stats_null.Mip.nodes;
  Alcotest.(check int) "simplex iterations" stats_off.Mip.simplex_iterations
    stats_null.Mip.simplex_iterations;
  Alcotest.(check (float 0.)) "gap achieved" stats_off.Mip.gap_achieved
    stats_null.Mip.gap_achieved;
  if stats_off.Mip.audit <> stats_null.Mip.audit then
    Alcotest.fail "audit trail differs under null sink"

let test_sa_noop_sink_invariance () =
  let inst = Lazy.force Smallbank.instance in
  let options = { Sa_solver.default_options with Sa_solver.seed = 7 } in
  let solve () = Sa_solver.solve ~options inst in
  let r_off = solve () in
  let r_null = Obs.with_sink (Obs.null_sink ()) solve in
  Alcotest.(check (float 0.)) "objective6" r_off.Sa_solver.objective6
    r_null.Sa_solver.objective6;
  Alcotest.(check (float 0.)) "cost" r_off.Sa_solver.cost
    r_null.Sa_solver.cost;
  if r_off.Sa_solver.search <> r_null.Sa_solver.search then
    Alcotest.fail "search stats differ under null sink";
  if not (Partitioning.equal r_off.Sa_solver.partitioning r_null.Sa_solver.partitioning)
  then Alcotest.fail "partitioning differs under null sink"

(* ------------------------------------------------------------------ *)
(* SA search statistics (satellite: exposed via Sa_solver.result)      *)
(* ------------------------------------------------------------------ *)

let test_sa_search_stats () =
  let inst = Lazy.force Smallbank.instance in
  let r = Sa_solver.solve inst in
  let s = r.Sa_solver.search in
  Alcotest.(check int) "moves mirror iterations" r.Sa_solver.iterations
    s.Sa_solver.moves;
  Alcotest.(check int) "accepted mirror" r.Sa_solver.accepted
    s.Sa_solver.accepted_moves;
  Alcotest.(check int) "epochs mirror outer_rounds" r.Sa_solver.outer_rounds
    s.Sa_solver.epochs;
  Alcotest.(check int) "moves = accepted + rejected" s.Sa_solver.moves
    (s.Sa_solver.accepted_moves + s.Sa_solver.rejected_moves);
  if s.Sa_solver.moves <= 0 then Alcotest.fail "no moves recorded";
  if not (s.Sa_solver.initial_temperature > 0.) then
    Alcotest.fail "initial temperature not positive";
  if s.Sa_solver.final_temperature > s.Sa_solver.initial_temperature then
    Alcotest.fail "temperature increased during cooling";
  (* Report rendering is total. *)
  let txt = Format.asprintf "%a" Report.pp_sa_search s in
  if String.length txt = 0 then Alcotest.fail "empty search report"

(* ------------------------------------------------------------------ *)
(* Summaries: deterministic for a fixed seed                           *)
(* ------------------------------------------------------------------ *)

(* Timestamps and durations vary run to run; everything else in the
   summary (counters, gauges, phase call counts, point counts, number of
   incumbents and their objective values) is a pure function of the
   seeded search and must replay exactly. *)
let summary_fingerprint (s : Obs.Summary.t) =
  let phases = List.map (fun (n, p) -> (n, p.Obs.Summary.calls)) s.Obs.Summary.phases in
  ( s.Obs.Summary.events,
    phases,
    s.Obs.Summary.counters,
    s.Obs.Summary.gauges,
    s.Obs.Summary.points,
    List.map snd s.Obs.Summary.incumbents )

let traced_sa_summary () =
  let inst = Lazy.force Smallbank.instance in
  let options = { Sa_solver.default_options with Sa_solver.seed = 3 } in
  let buf = Buffer.create 4096 in
  let sink = Obs.jsonl_sink (Buffer.add_string buf) in
  ignore (Obs.with_sink sink (fun () -> Sa_solver.solve ~options inst));
  let events = parse_trace "sa" (Buffer.contents buf) in
  (match Obs.Reader.check_nesting events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sa span nesting broken: %s" e);
  Obs.Summary.of_events events

let test_summarize_deterministic () =
  let a = traced_sa_summary () and b = traced_sa_summary () in
  if summary_fingerprint a <> summary_fingerprint b then
    Alcotest.fail "summary differs across two runs with the same seed";
  (* Rendering a given summary is itself deterministic. *)
  let render s = Format.asprintf "%a" Obs.Summary.pp s in
  Alcotest.(check string) "pp deterministic" (render a) (render a)

let test_summary_contents () =
  let text, _, stats = traced_mip_solve () in
  let s = Obs.Summary.of_events (parse_trace "mip" text) in
  (match List.assoc_opt "mip.solve" s.Obs.Summary.phases with
  | Some p -> Alcotest.(check int) "one mip.solve span" 1 p.Obs.Summary.calls
  | None -> Alcotest.fail "mip.solve phase missing");
  Alcotest.(check (float 0.)) "summary nodes counter"
    (float_of_int stats.Mip.nodes)
    (match List.assoc_opt "mip.nodes" s.Obs.Summary.counters with
    | Some v -> v
    | None -> nan);
  if s.Obs.Summary.solve_start = None then
    Alcotest.fail "solve_start missing";
  (match s.Obs.Summary.time_to_first_incumbent with
  | Some t when t >= 0. -> ()
  | Some t -> Alcotest.failf "negative time-to-first-incumbent %g" t
  | None -> Alcotest.fail "no incumbent event in optimal solve");
  if s.Obs.Summary.incumbents = [] then Alcotest.fail "no incumbents recorded"

(* ------------------------------------------------------------------ *)
(* Metrics aggregation and the emitter guard                           *)
(* ------------------------------------------------------------------ *)

let test_metrics_accumulate () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
  @@ fun () ->
  (* Metrics-only (no sink installed): counts must still register. *)
  if not (Obs.enabled ()) then Alcotest.fail "enabled() false with metrics on";
  Obs.count "t.c" 2.;
  Obs.count "t.c" 3.5;
  Obs.gauge "t.g" 1.;
  Obs.gauge "t.g" 4.;
  Obs.observe "t.h" 1.;
  Obs.observe "t.h" 3.;
  Alcotest.(check (float 0.)) "counter total" 5.5 (Obs.Metrics.counter_value "t.c");
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (float 0.)) "gauge keeps last" 4.
    (match List.assoc_opt "t.g" snap.Obs.Metrics.gauges with
    | Some v -> v
    | None -> nan);
  (match List.assoc_opt "t.h" snap.Obs.Metrics.hists with
  | Some h ->
    Alcotest.(check int) "hist count" 2 h.Obs.Metrics.count;
    Alcotest.(check (float 0.)) "hist sum" 4. h.Obs.Metrics.sum;
    Alcotest.(check (float 0.)) "hist min" 1. h.Obs.Metrics.min;
    Alcotest.(check (float 0.)) "hist max" 3. h.Obs.Metrics.max
  | None -> Alcotest.fail "histogram missing");
  Obs.Metrics.reset ();
  Alcotest.(check (float 0.)) "reset clears" 0. (Obs.Metrics.counter_value "t.c")

let test_disabled_emitters_drop () =
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  if Obs.enabled () then Alcotest.fail "enabled() true with nothing listening";
  Obs.count "t.dropped" 1.;
  Obs.observe "t.dropped.h" 1.;
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  Alcotest.(check (float 0.)) "count while off dropped" 0.
    (Obs.Metrics.counter_value "t.dropped")

let test_clock_monotone () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now () in
    if t < !prev then Alcotest.failf "Clock.now went backwards";
    prev := t
  done;
  if Obs.Clock.since (Obs.Clock.now ()) < 0. then
    Alcotest.fail "Clock.since negative for a fresh origin"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "schema",
        [
          Alcotest.test_case "event round-trip" `Quick test_event_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick
            test_reader_rejects_malformed;
        ] );
      ( "traces",
        [
          Alcotest.test_case "parses and nests" `Quick
            test_trace_parses_and_nests;
          Alcotest.test_case "nesting violations detected" `Quick
            test_nesting_violations_detected;
          Alcotest.test_case "counters match stats" `Quick
            test_counters_match_stats;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "mip bit-identical under null sink" `Quick
            test_noop_sink_invariance;
          Alcotest.test_case "sa bit-identical under null sink" `Quick
            test_sa_noop_sink_invariance;
        ] );
      ( "sa-stats",
        [ Alcotest.test_case "search statistics" `Quick test_sa_search_stats ] );
      ( "summary",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_summarize_deterministic;
          Alcotest.test_case "contents" `Quick test_summary_contents;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "accumulate" `Quick test_metrics_accumulate;
          Alcotest.test_case "disabled emitters drop" `Quick
            test_disabled_emitters_drop;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
        ] );
    ]
