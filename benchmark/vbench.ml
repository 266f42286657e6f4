(* vbench: the end-to-end benchmark, from instance JSON in to certified
   partitioning out.  See README.md for the workloads, the metric
   catalogue and how to compare two commits.

   One invocation with [--workload W] runs one workload in this process
   and prints, as its last stdout line, the JSON result
   {"correct", "attempted", "failed", "metrics"}.  Without [--workload],
   every workload runs in its own child process. *)

open Vpart

let now = Obs.Clock.now

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of a sorted, non-empty array. *)
let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted xs) 0.5

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so spreads match the ones reported
   elsewhere for the same values.  Needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  let q i =
    let m = i * (n + 1) in
    let j = max 1 (min (n - 1) (m / 4)) in
    let delta = m - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

let ratio a b = if b > 0. then a /. b else 0.

let mean xs = ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Each workload serves requests from a fixed pool of inputs, so runs
   with different seeds measure the same work: solve times depend
   chaotically on the input (branch-and-bound trees), and a pool drawn
   afresh per seed would move the medians more than the bounds allow.
   The seed shuffles the pool anew for every round over it, and every
   request carries its own instance name, so no two request texts are
   the same.  Pool sizes end in 5 (5, 15, 505) so that the p50 and p90
   ranks of a pass fall on one element rather than between two. *)
type pool =
  | Pipeline of (Instance.t * Requests.solver) array
  | Stream of Instance.t array  (* for the batch service *)

type workload = {
  name : string;
  params : (string * Json.t) list;  (* echoed in the result stamp *)
  pool : unit -> pool;
}

let pool_size = function Pipeline a -> Array.length a | Stream a -> Array.length a

let batch_jobs = 2
let batch_options = Requests.qp_options ~sites:2 ~exact:false

let tiny_params =
  { Instance_gen.default_params with Instance_gen.name = "tiny"; num_tables = 3;
    num_transactions = 4 }

let sa_cells =
  List.concat_map
    (fun shape ->
       List.concat_map
         (fun update -> List.map (fun repl -> (shape, update, repl)) [ true; false ])
         [ 10; 50 ])
    [ "rndAt64x100"; "rndBt64x100" ]
  |> Array.of_list

let workloads =
  [
    {
      name = "tpcc-bnb";
      params =
        [ ("instance", Json.String "TPC-C v5"); ("pool", Json.Int 5);
          ("sites", Json.String "3, 4, 3, 4, 3");
          ("frequency_scale", Json.String "U(0.5,1.5) per transaction, seeds 1..5");
          ("certify_exact", Json.Bool true) ];
      pool =
        (fun () ->
           let tpcc = Lazy.force Tpcc.instance in
           Pipeline
             (Array.init 5 (fun e ->
                  ( Requests.scale_frequencies (Rng.create (e + 1)) tpcc,
                    Requests.Qp
                      (Requests.qp_options ~sites:(3 + (e mod 2)) ~exact:true) ))));
    };
    {
      name = "paper-lp";
      params =
        [ ("instance_class", Json.String "rndBt4x100, seeds 1..5");
          ("pool", Json.Int 5); ("sites", Json.Int 2);
          ("certify_exact", Json.Bool true) ];
      pool =
        (fun () ->
           let params = Instance_gen.find "rndBt4x100" in
           Pipeline
             (Array.init 5 (fun e ->
                  ( Instance_gen.generate ~seed:(e + 1) params,
                    Requests.Qp (Requests.qp_options ~sites:2 ~exact:true) ))));
    };
    {
      name = "batch-stream";
      params =
        [ ("instance_class", Json.String "Table 1 defaults, 3 tables x 4 txns, seeds 1..505");
          ("pool", Json.Int 505); ("sites", Json.Int 2);
          ("jobs", Json.Int batch_jobs); ("action", Json.String "certify") ];
      pool =
        (fun () ->
           Stream
             (Array.init 505 (fun e -> Instance_gen.generate ~seed:(e + 1) tiny_params)));
    };
    {
      name = "sa-mix";
      params =
        [ ("instance_classes", Json.String "rndAt64x100, rndBt64x100");
          ("update_percent", Json.String "10, 50");
          ("layouts", Json.String "replicated, disjoint");
          ("pool", Json.Int 15); ("sites", Json.Int 4) ];
      pool =
        (fun () ->
           Pipeline
             (Array.init 15 (fun e ->
                  let shape, update, replicated = sa_cells.(e mod Array.length sa_cells) in
                  let params =
                    { (Instance_gen.find shape) with Instance_gen.update_percent = update }
                  in
                  ( Instance_gen.generate ~seed:(e + 1) params,
                    Requests.Sa (Requests.sa_options ~sites:4 ~seed:(e + 1) ~replicated) ))));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Set-up and passes                                                   *)
(* ------------------------------------------------------------------ *)

(* One TPC-C request at S = 2 before timing starts, so lazy
   initialisation is paid in set-up. *)
let warm_up () =
  let solver = Requests.Qp (Requests.qp_options ~sites:2 ~exact:true) in
  match
    Requests.verify
      (Requests.run solver (Requests.serialise (Lazy.force Tpcc.instance)))
  with
  | Ok _ -> ()
  | Error e -> failwith ("warm-up request failed: " ^ e)

let setup w =
  let t0 = now () in
  let pool = w.pool () in
  warm_up ();
  (pool, now () -. t0)

(* Request [k] of a run with [seed] is pool element [order k]: rounds
   follow one another, each in its own seeded order. *)
let schedule ~seed size =
  let pass = ref (-1) and perm = ref [||] in
  fun k ->
    if k / size <> !pass then begin
      pass := k / size;
      perm := Array.init size Fun.id;
      Rng.shuffle (Rng.create ((seed * 10_007) + !pass)) !perm
    end;
    !perm.(k mod size)

type root_lp = { seconds : float; iters : int; lu_nnz : int }

(* The root LP of the request's model, timed on its own: Simplex.create
   plus the dual simplex to optimality, on the model Qp_solver builds. *)
let root_lp inst (options : Qp_solver.options) =
  let grouping =
    if options.Qp_solver.use_grouping then Grouping.compute inst
    else Grouping.identity inst
  in
  let stats = Stats.compute grouping.Grouping.reduced ~p:options.Qp_solver.p in
  let std = Lp.standardize (fst (Qp_solver.build_model stats options)) in
  let t0 = now () in
  let sx, status =
    Obs.with_span "bench.root_lp" (fun () ->
        let sx = Simplex.create std in
        (sx, Simplex.reoptimize sx))
  in
  let seconds = now () -. t0 in
  if status <> Simplex.Optimal then
    failwith ("root LP ended " ^ Simplex.string_of_status status);
  { seconds; iters = Simplex.iterations sx; lu_nnz = Simplex.lu_nnz sx }

(* Microseconds per Cost_model.objective call on the verified layout. *)
let objective_us (v : Requests.verdict) =
  let calls = 20 in
  let t0 = now () in
  for _ = 1 to calls do
    ignore
      (Sys.opaque_identity
         (Cost_model.objective v.Requests.stats ~lambda:Requests.lambda v.Requests.layout))
  done;
  1e6 *. (now () -. t0) /. float_of_int calls

type sample = {
  latency : float;  (* seconds *)
  verdict : (float, string) result;
      (* the returned cost ÷ the single-site cost, or why the request failed *)
  label : string;   (* names the request in failure reports *)
  root : root_lp option;        (* traced pass, QP requests only *)
  objective_us : float option;  (* traced pass only *)
}

(* A request's outcome; in the traced pass ([keep]) also the separately
   timed root LP of its model and objective evaluation of its layout. *)
let sample ~keep ~latency ~label ?qp inst verdict =
  {
    latency;
    verdict = Result.map (fun v -> v.Requests.ratio) verdict;
    label;
    root = (match (keep, qp, inst) with
        | true, Some o, Some i -> Some (root_lp i o)
        | _ -> None);
    objective_us = (if keep then Result.to_option (Result.map objective_us verdict) else None);
  }

(* A round is one whole pass over the pool: the same work in every round
   of every run, so rounds can be compared with one another.  Each round
   of an untraced pass is followed by a set-up, timed, so that set-up
   time is sampled across the run like everything else rather than at
   one instant. *)
type round = {
  rate : float;  (* requests per second *)
  p50 : float;
  p90 : float;
  setup_s : float option;
}

let round ~seconds ?setup_s latencies =
  let a = sorted latencies in
  { rate = float_of_int (Array.length a) /. seconds; p50 = percentile a 0.5;
    p90 = percentile a 0.9; setup_s }

(* The set-up after a round; none in the traced pass, whose trace must
   hold requests only. *)
let resetup ~keep w = if keep then None else Some (snd (setup w))

type pass = {
  samples : sample list;  (* in request order *)
  timed : float;          (* seconds the requests were being served *)
  rounds : round list;
  jobs : int;
  minor_words : float;
  major_words : float;
  top_heap_words : int;   (* major-heap high water at the end of the pass *)
}

(* A pass serves at most [max] requests, and stops at the first end of a
   round after the deadline, so that every run serves each pool element
   equally often. *)
type budget = { deadline : float; max : int }

let continues b ~size k = k < b.max && (k mod size <> 0 || now () < b.deadline)

let request_name w ~seed k = Printf.sprintf "%s/%d/%d" w.name seed k

let label order k = Printf.sprintf "request %d (pool element %d)" k (order k)

let pipeline_samples ~keep ~seed w budget pool =
  let size = Array.length pool in
  let order = schedule ~seed size in
  let rec loop k acc current rounds =
    if not (continues budget ~size k) then (List.rev acc, List.rev rounds)
    else begin
      let inst, solver = pool.(order k) in
      let text = Requests.serialise { inst with Instance.name = request_name w ~seed k } in
      let t0 = now () in
      let out =
        try Ok (Obs.with_span "bench.request" (fun () -> Requests.run solver text))
        with e -> Error ("raised " ^ Printexc.to_string e)
      in
      let latency = now () -. t0 in
      let qp = match solver with Requests.Qp o -> Some o | Requests.Sa _ -> None in
      let s =
        sample ~keep ~latency ~label:(label order k) ?qp
          (Result.to_option (Result.map (fun o -> o.Requests.instance) out))
          (Result.bind out Requests.verify)
      in
      let current = latency :: current in
      if (k + 1) mod size = 0 then
        let seconds = List.fold_left ( +. ) 0. current in
        let setup_s = resetup ~keep w in
        loop (k + 1) (s :: acc) [] (round ~seconds ?setup_s current :: rounds)
      else loop (k + 1) (s :: acc) current rounds
    end
  in
  let samples, rounds = loop 0 [] [] [] in
  (samples, List.fold_left (fun s x -> s +. x.latency) 0. samples, rounds, 1)

(* Answers are checked as the service emits them, so only compact samples
   are kept however long the run; the time spent checking (and setting
   up after a round) is taken off the sweep's wall-clock. *)
let batch_samples ~keep ~seed w budget pool =
  let size = Array.length pool in
  let order = schedule ~seed size in
  let next = ref 0 in
  let rec stream () =
    let k = !next in
    if continues budget ~size k then begin
      incr next;
      let name = request_name w ~seed k in
      Seq.Cons ((name, { (pool.(order k)) with Instance.name = name }), stream)
    end
    else Seq.Nil
  in
  let samples = ref [] and rounds = ref [] and current = ref [] in
  let checking = ref 0. and round_start = ref (now ()) and round_checking = ref 0. in
  let emit (r : Batch.response) =
    let t0 = now () in
    let inst = pool.(order r.Batch.index) in
    samples :=
      sample ~keep ~latency:r.Batch.seconds ~label:(label order r.Batch.index)
        ~qp:batch_options (Some inst) (Requests.verify_response inst r)
      :: !samples;
    current := r.Batch.seconds :: !current;
    let ends_round = (r.Batch.index + 1) mod size = 0 in
    let setup_s = if ends_round then resetup ~keep w else None in
    let t1 = now () in
    checking := !checking +. (t1 -. t0);
    round_checking := !round_checking +. (t1 -. t0);
    if ends_round then begin
      let seconds = t1 -. !round_start -. !round_checking in
      rounds := round ~seconds ?setup_s !current :: !rounds;
      current := [];
      round_start := t1;
      round_checking := 0.
    end
  in
  let summary =
    Batch.run ~jobs:batch_jobs ~options:batch_options ~action:Batch.Certify ~emit stream
  in
  ( List.rev !samples,
    summary.Batch.elapsed_seconds -. !checking,
    List.rev !rounds,
    batch_jobs )

let run_pass ?(keep = false) ~seed w budget pool =
  let g0 = Gc.quick_stat () in
  let samples, timed, rounds, jobs =
    match pool with
    | Pipeline p -> pipeline_samples ~keep ~seed w budget p
    | Stream p -> batch_samples ~keep ~seed w budget p
  in
  let g1 = Gc.quick_stat () in
  {
    samples;
    timed;
    rounds;
    jobs;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    top_heap_words = g1.Gc.top_heap_words;
  }

let failures pass =
  List.filter_map
    (fun s -> match s.verdict with Ok _ -> None | Error e -> Some (s.label, e))
    pass.samples

let latencies pass = sorted (List.map (fun s -> s.latency) pass.samples)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Latency percentiles and throughput are medians over rounds, which all
   do the same work, so a burst of contention from outside the process
   moves one round rather than the result.  A pass with no whole round
   (the smoke test) falls back to all its samples. *)
let end_to_end ~setup_s pass =
  let lat = latencies pass in
  let over_rounds f fallback =
    match pass.rounds with [] -> fallback | rs -> median (List.map f rs)
  in
  let ratios = List.filter_map (fun s -> Result.to_option s.verdict) pass.samples in
  [
    m "setup_s" "s" setup_s;
    m "req_p50_ms" "ms" (1000. *. over_rounds (fun r -> r.p50) (percentile lat 0.5));
    m "req_p90_ms" "ms" (1000. *. over_rounds (fun r -> r.p90) (percentile lat 0.9));
    m "throughput_rps" "req/s"
      (over_rounds (fun r -> r.rate) (ratio (float_of_int (Array.length lat)) pass.timed));
    m "cost_ratio" "ratio" (exp (mean (List.map log ratios)));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* The traced pass: the first [n] requests of [untraced] again, under an
   in-memory JSONL sink, then folded into per-layer numbers. *)
let per_layer ~seed w ~untraced ~n pool =
  let buf = Buffer.create (1 lsl 20) in
  let pass =
    Obs.with_sink (Obs.jsonl_sink (Buffer.add_string buf)) (fun () ->
        run_pass ~keep:true ~seed w { deadline = infinity; max = n } pool)
  in
  let root_lps = List.filter_map (fun s -> s.root) pass.samples in
  let objective = List.filter_map (fun s -> s.objective_us) pass.samples in
  let events =
    match Obs.Reader.read_string (Buffer.contents buf) with
    | Error e -> failwith ("trace does not parse: " ^ e)
    | Ok events -> (
      match Obs.Reader.check_nesting events with
      | Error e -> failwith ("trace is not well nested: " ^ e)
      | Ok () -> events)
  in
  let l = Layers.of_events events in
  let per_req v = v /. float_of_int n in
  let ms_per_req name = per_req (1000. *. Layers.total l name) in
  let nodes = Layers.counter l "mip.nodes" in
  let mip_iters = Layers.counter l "mip.simplex_iterations" in
  let moves = Layers.counter l "sa.moves" in
  let anneal_s = Layers.total l "sa.anneal" in
  let root_s = List.fold_left (fun s r -> s +. r.seconds) 0. root_lps in
  let root_iters = List.fold_left (fun s r -> s + r.iters) 0 root_lps in
  let served = List.fold_left (fun s x -> s +. x.latency) 0. pass.samples in
  let in_layers =
    List.fold_left
      (fun s name -> s +. Layers.total l name)
      0.
      [ "bench.parse"; "bench.lint"; "bench.emit"; "qp.solve"; "sa.solve" ]
  in
  let residual_pct = 100. *. ratio (served -. in_layers) served in
  (* The spans folded here must cover the requests; a renamed or removed
     span would otherwise zero its metrics without a sound. *)
  if residual_pct > 10. then
    failwith
      (Printf.sprintf "layer spans cover only %.1f%% of request time"
         (100. -. residual_pct));
  let untraced_n = float_of_int (List.length untraced.samples) in
  let mean_int xs = mean (List.map float_of_int xs) in
  let p50 p = percentile (latencies p) 0.5 in
  ( pass,
    [
      m "codec.parse_ms" "ms" (ms_per_req "bench.parse");
      m "codec.emit_ms" "ms" (ms_per_req "bench.emit");
      m "instance_lint.ms" "ms" (ms_per_req "bench.lint");
      m "stats.ms" "ms" (ms_per_req "qp.grouping" +. ms_per_req "qp.stats");
      m "qp_solver.build_model_ms" "ms" (ms_per_req "qp.build_model");
      m "qp_solver.self_ms" "ms" (per_req (1000. *. Layers.self l "qp.solve"));
      m "qp_solver.model_rows" "count" (mean_int l.Layers.model_rows);
      m "qp_solver.model_cols" "count" (mean_int l.Layers.model_cols);
      m "certify.float_ms" "ms" (ms_per_req "qp.certify");
      m "certify.exact_ms" "ms" (ms_per_req "certify.exact");
      m "certify.exact_checks" "count" (per_req (Layers.counter l "certify.exact_checks"));
      m "simplex.root_lp_ms" "ms"
        (1000. *. ratio root_s (float_of_int (List.length root_lps)));
      m "simplex.root_iters" "count" (mean_int (List.map (fun r -> r.iters) root_lps));
      m "simplex.iters_per_s" "1/s" (ratio (float_of_int root_iters) root_s);
      m "simplex.lu_refactor_ms" "ms" (ms_per_req "simplex.lu_refactor");
      m "simplex.refactorizations" "count"
        (per_req (Layers.counter l "simplex.refactorizations"));
      m "simplex.lu_nnz" "count" (mean_int (List.map (fun r -> r.lu_nnz) root_lps));
      m "simplex.eta_applications" "count"
        (per_req (Layers.counter l "simplex.eta_applications"));
      m "mip.self_ms" "ms" (per_req (1000. *. Layers.self l "mip.solve"));
      m "mip.nodes" "count" (per_req nodes);
      m "mip.simplex_iters" "count" (per_req mip_iters);
      m "mip.ms_per_node" "ms" (ratio (1000. *. Layers.total l "mip.solve") nodes);
      m "mip.iters_per_node" "count" (ratio mip_iters nodes);
      m "mip.prune_ratio" "ratio" (ratio (Layers.counter l "mip.prune.bound") nodes);
      m "mip.first_incumbent_ms" "ms" (1000. *. mean l.Layers.first_incumbent);
      m "sa_solver.self_ms" "ms" (per_req (1000. *. Layers.self l "sa.solve"));
      m "sa_solver.anneal_ms" "ms" (ms_per_req "sa.anneal");
      m "sa_solver.moves_per_s" "1/s" (ratio moves anneal_s);
      m "sa_solver.accept_ratio" "ratio" (ratio (Layers.counter l "sa.accepted") moves);
      m "delta_cost.evals_per_move" "count" (ratio (Layers.counter l "sa.delta_evals") moves);
      m "delta_cost.kernel_moves_per_s" "1/s"
        (ratio (Layers.counter l "sa.delta_evals") anneal_s);
      m "cost_model.objective_us" "us" (mean objective);
      m "batch.utilization" "ratio"
        (ratio
           (List.fold_left (fun s x -> s +. x.latency) 0. untraced.samples)
           (untraced.timed *. float_of_int untraced.jobs));
      m "gc.minor_words_per_req" "words" (ratio untraced.minor_words untraced_n);
      m "gc.major_words_per_req" "words" (ratio untraced.major_words untraced_n);
      m "gc.top_heap_mb" "MB"
        (float_of_int (untraced.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "obs.trace_overhead_pct" "%" (100. *. (ratio (p50 pass) (p50 untraced) -. 1.));
      m "layers.residual_pct" "%" residual_pct;
    ] )

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let result_json ~attempted ~failed ms =
  let metric x =
    (x.mname, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ])
  in
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Json.Obj (List.map metric ms));
    ]

let run_workload w ~seed ~seconds ~trace ~quick =
  let t_start = now () in
  let pool, first_setup = setup w in
  let budget =
    if quick then { deadline = infinity; max = 3 }
    else { deadline = now () +. (seconds *. if trace then 0.5 else 1.); max = max_int }
  in
  let untraced = run_pass ~seed w budget pool in
  let setup_times = first_setup :: List.filter_map (fun r -> r.setup_s) untraced.rounds in
  let setup_s = median setup_times in
  (* The smoke test (--quick) exercises both reports. *)
  let e2e = if quick || not trace then end_to_end ~setup_s untraced else [] in
  let traced, layers =
    if quick || trace then
      (* The smoke test traces one request, to stay short. *)
      let n = if quick then 1 else List.length untraced.samples in
      let traced, layers = per_layer ~seed w ~untraced ~n pool in
      (Some traced, layers)
    else (None, [])
  in
  let metrics = e2e @ layers in
  let passes = untraced :: Option.to_list traced in
  let attempted = List.fold_left (fun s p -> s + List.length p.samples) 0 passes in
  let failed = List.concat_map failures passes in
  List.iter
    (fun (label, e) ->
       Printf.printf "FAIL %s seed %d %s: %s\n" w.name seed label e)
    failed;
  let lat = latencies untraced in
  List.iter
    (fun x -> Printf.printf "%s %s = %.6g %s\n" w.name x.mname x.value x.unit_)
    metrics;
  Printf.printf "%s latency over n = %d requests: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n"
    w.name (Array.length lat)
    (1000. *. percentile lat 0.5) (1000. *. percentile lat 0.9)
    (1000. *. percentile lat 0.99);
  let stamp =
    Json.Obj
      [
        ("workload", Json.String w.name);
        ("provenance", Bench_compare.provenance_json ());
        ("seed", Json.Int seed);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("quick", Json.Bool quick);
        ("params", Json.Obj w.params);
        ("pool_size", Json.Int (pool_size pool));
        ("setup_runs_s", Json.List (List.map (fun t -> Json.Float t) setup_times));
        ("requests_untraced", Json.Int (List.length untraced.samples));
        ("rounds", Json.Int (List.length untraced.rounds));
        ( "requests_traced",
          Json.Int (match traced with Some p -> List.length p.samples | None -> 0) );
        ( "latency_ms",
          Json.Obj
            [
              ("samples", Json.Int (Array.length lat));
              ("p50", Json.Float (1000. *. percentile lat 0.5));
              ("p90", Json.Float (1000. *. percentile lat 0.9));
              ("p99", Json.Float (1000. *. percentile lat 0.99));
            ] );
        ("wall_s", Json.Float (now () -. t_start));
      ]
  in
  print_endline (Json.to_string ~minify:true (Json.Obj [ ("vbench", stamp) ]));
  print_endline
    (Json.to_string ~minify:true
       (result_json ~attempted ~failed:(List.length failed) metrics));
  if failed <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* All workloads, each in a child process                              *)
(* ------------------------------------------------------------------ *)

type child = { ok : bool; values : (string * float) list; attempted : int; failed : int }

let run_child ~seed ~seconds ~trace ~quick w =
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read last =
    match input_line ic with
    | line -> print_endline line; read (Some line)
    | exception End_of_file -> last
  in
  let last = read None in
  let status = Unix.close_process_in ic in
  let parsed =
    match last with
    | None -> None
    | Some line -> (
      try
        let j = Json.of_string line in
        let values =
          match Json.member "metrics" j with
          | Json.Obj ms -> List.map (fun (k, v) -> (k, Json.to_float (Json.member "value" v))) ms
          | _ -> []
        in
        Some (values, Json.to_int (Json.member "attempted" j), Json.to_int (Json.member "failed" j))
      with _ -> None)
  in
  match (status, parsed) with
  | Unix.WEXITED 0, Some (values, attempted, failed) ->
    { ok = true; values; attempted; failed }
  | _, Some (values, attempted, failed) ->
    { ok = false; values; attempted; failed = max failed 1 }
  | _ ->
    Printf.printf "FAIL %s: child process produced no result\n" w.name;
    { ok = false; values = []; attempted = 0; failed = 1 }

(* [repeat] repetitions of every workload, rotating which runs first, then
   the median, quartiles and relative spread of every metric. *)
let run_all ~seed ~seconds ~trace ~quick ~repeat =
  let ws = Array.of_list workloads in
  let k = Array.length ws in
  let runs =
    List.concat
      (List.init repeat (fun r ->
           List.init k (fun i ->
               let w = ws.((r + i) mod k) in
               (w.name, run_child ~seed:(seed + r) ~seconds ~trace ~quick w))))
  in
  (* Per workload and metric, the median over the repetitions. *)
  let medians =
    List.concat_map
      (fun w ->
         let mine = List.filter_map (fun (n, c) -> if n = w.name then Some c else None) runs in
         let names = match mine with [] -> [] | c :: _ -> List.map fst c.values in
         List.map
           (fun metric ->
              let vs = List.filter_map (fun c -> List.assoc_opt metric c.values) mine in
              if List.length vs >= 2 then begin
                let q1, q2, q3 = quartiles vs in
                Printf.printf
                  "spread %s %s: median %.6g, quartiles %.6g .. %.6g, relative IQR %.4f (%d runs)\n"
                  w.name metric q2 q1 q3 (ratio (q3 -. q1) (Float.abs q2)) (List.length vs)
              end;
              (w.name ^ "/" ^ metric, Json.Float (median vs)))
           names)
      workloads
  in
  let attempted = List.fold_left (fun s (_, c) -> s + c.attempted) 0 runs in
  let failed = List.fold_left (fun s (_, c) -> s + c.failed) 0 runs in
  let all_ok = List.for_all (fun (_, c) -> c.ok) runs in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool (all_ok && failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj medians);
          ]));
  if not all_ok then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 20.
  and trace = ref 0 and quick = ref false and repeat = ref 1 in
  let names = String.concat ", " (List.map (fun w -> w.name) workloads) in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME  run one workload in this process (" ^ names ^ ")");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 20)");
      ("--trace", Arg.Set_int trace,
       "0|1  1: report per-layer metrics from an extra traced pass");
      ("--quick", Arg.Set quick,
       " three requests per workload with every check and no timing (smoke test)");
      ("--repeat", Arg.Set_int repeat,
       "K  run every workload K times in rotating order and report spreads");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "vbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat K]";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "vbench: --trace takes 0 or 1"; exit 2);
  if !repeat < 1 then (prerr_endline "vbench: --repeat takes K >= 1"; exit 2);
  let trace = !trace = 1 in
  match !workload with
  | None ->
    run_all ~seed:!seed ~seconds:!seconds ~trace ~quick:!quick ~repeat:!repeat
  | Some name -> (
    match List.find_opt (fun w -> w.name = name) workloads with
    | None ->
      Printf.eprintf "vbench: unknown workload %S (known: %s)\n" name names;
      exit 2
    | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~trace ~quick:!quick)
