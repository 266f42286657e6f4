open Vpart

type action = Check | Solve | Certify

let action_of_string = function
  | "check" -> Some Check
  | "solve" -> Some Solve
  | "certify" -> Some Certify
  | _ -> None

let string_of_action = function
  | Check -> "check"
  | Solve -> "solve"
  | Certify -> "certify"

type response = {
  index : int;
  name : string;
  ok : bool;
  outcome : string;
  cost : float option;
  objective6 : float option;
  seconds : float;
  error : string option;
}

let opt_float = function None -> Json.Null | Some v -> Json.Float v

let response_to_json r =
  Json.Obj
    [
      ("index", Json.Int r.index);
      ("name", Json.String r.name);
      ("ok", Json.Bool r.ok);
      ("outcome", Json.String r.outcome);
      ("cost", opt_float r.cost);
      ("objective6", opt_float r.objective6);
      ("seconds", Json.Float r.seconds);
      ("error",
       match r.error with None -> Json.Null | Some e -> Json.String e);
    ]

type summary = {
  requests : int;
  failures : int;
  elapsed_seconds : float;
  throughput : float;
  p50_seconds : float;
  p99_seconds : float;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
  compactions : int;
  max_rss_kb : int option;
}

let summary_to_json s =
  Json.Obj
    [
      ("requests", Json.Int s.requests);
      ("failures", Json.Int s.failures);
      ("elapsed_seconds", Json.Float s.elapsed_seconds);
      ("throughput", Json.Float s.throughput);
      ("p50_seconds", Json.Float s.p50_seconds);
      ("p99_seconds", Json.Float s.p99_seconds);
      ("minor_words", Json.Float s.minor_words);
      ("major_words", Json.Float s.major_words);
      ("top_heap_words", Json.Int s.top_heap_words);
      ("compactions", Json.Int s.compactions);
      ("max_rss_kb",
       match s.max_rss_kb with None -> Json.Null | Some k -> Json.Int k);
    ]

(* VmHWM ("high water mark" RSS) from /proc/self/status, in kB.  [None]
   on platforms without procfs — the summary field is advisory. *)
let read_max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          String.sub line 6 (String.length line - 6)
          |> String.trim
          |> (fun s ->
              match String.index_opt s ' ' with
              | Some i -> String.sub s 0 i
              | None -> s)
          |> int_of_string_opt
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Exact nearest-rank percentile of a (non-empty) latency array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let outcome_tag = function
  | Qp_solver.Proved_optimal -> "optimal"
  | Qp_solver.Limit_feasible -> "feasible"
  | Qp_solver.Limit_no_solution -> "no_solution"
  | Qp_solver.Too_large -> "too_large"

(* Split off the next [n] elements; the returned tail re-enters the
   loop, so only one window of instances is ever forced. *)
let rec take n seq acc =
  if n = 0 then (List.rev acc, seq)
  else
    match seq () with
    | Seq.Nil -> (List.rev acc, Seq.empty)
    | Seq.Cons (x, rest) -> take (n - 1) rest (x :: acc)

let run ?(jobs = 1) ?window ?(options = Qp_solver.default_options) ~action
    ~emit seq =
  let jobs = max 1 jobs in
  let window = max jobs (Option.value window ~default:(8 * jobs)) in
  (* One simplex workspace per pool participant ({!Par.worker_index}):
     domain-local, so pooled solver state is never shared across
     concurrently running requests. *)
  let sx_ws = Array.init jobs (fun _ -> Simplex.Workspace.create ()) in
  let g0 = Gc.quick_stat () in
  let handle (index, name, inst) =
    let t0 = Obs.Clock.now () in
    let wi = Par.worker_index () in
    let r =
      try
        match action with
        | Check ->
          let diags = Instance_lint.lint inst in
          let stats = Stats.compute inst ~p:options.Qp_solver.p in
          let part = Partitioning.single_site inst in
          let clean = not (Vpart_analysis.Diagnostic.has_errors diags) in
          {
            index;
            name;
            ok = clean;
            outcome = (if clean then "clean" else "findings");
            cost = Some (Cost_model.cost stats part);
            objective6 =
              Some
                (Cost_model.objective stats ~lambda:options.Qp_solver.lambda
                   part);
            seconds = 0.;
            error = None;
          }
        | Solve | Certify ->
          let options =
            {
              options with
              Qp_solver.certify =
                options.Qp_solver.certify || action = Certify;
              simplex_workspace = Some sx_ws.(wi);
            }
          in
          let r = Qp_solver.solve ~options inst in
          let solved =
            match r.Qp_solver.outcome with
            | Qp_solver.Proved_optimal | Qp_solver.Limit_feasible -> true
            | Qp_solver.Limit_no_solution | Qp_solver.Too_large -> false
          in
          let certified =
            match r.Qp_solver.certificate with
            | None -> true
            | Some ds -> not (Vpart_analysis.Diagnostic.has_errors ds)
          in
          {
            index;
            name;
            ok = solved && certified;
            outcome = outcome_tag r.Qp_solver.outcome;
            cost = r.Qp_solver.cost;
            objective6 = r.Qp_solver.objective6;
            seconds = 0.;
            error = None;
          }
      with e ->
        {
          index;
          name;
          ok = false;
          outcome = "error";
          cost = None;
          objective6 = None;
          seconds = 0.;
          error = Some (Printexc.to_string e);
        }
    in
    { r with seconds = Obs.Clock.since t0 }
  in
  Obs.with_span "batch.run"
    ~attrs:
      [
        ("jobs", Obs.Int jobs);
        ("window", Obs.Int window);
        ("action", Obs.Str (string_of_action action));
      ]
  @@ fun () ->
  let start = Obs.Clock.now () in
  let latencies = ref [] in
  let requests = ref 0 and failures = ref 0 in
  let top_heap = ref 0 in
  Par.with_pool ~jobs @@ fun pool ->
  let rec loop index seq =
    let chunk, rest = take window seq [] in
    match chunk with
    | [] -> ()
    | chunk ->
      let tagged =
        List.mapi (fun k (name, inst) -> (index + k, name, inst)) chunk
      in
      let responses = Par.map_list pool handle tagged in
      List.iter
        (fun r ->
           incr requests;
           if not r.ok then incr failures;
           latencies := r.seconds :: !latencies;
           Obs.observe "batch.request.seconds" r.seconds;
           emit r)
        responses;
      let g = Gc.quick_stat () in
      if g.Gc.top_heap_words > !top_heap then
        top_heap := g.Gc.top_heap_words;
      Obs.sample_gc ();
      loop (index + List.length chunk) rest
  in
  loop 0 seq;
  if Obs.enabled () then begin
    Obs.count "batch.requests" (float_of_int !requests);
    if !failures > 0 then Obs.count "batch.failures" (float_of_int !failures)
  end;
  let elapsed = Obs.Clock.since start in
  let g1 = Gc.quick_stat () in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  {
    requests = !requests;
    failures = !failures;
    elapsed_seconds = elapsed;
    throughput =
      (if elapsed > 0. then float_of_int !requests /. elapsed else 0.);
    p50_seconds = percentile sorted 0.50;
    p99_seconds = percentile sorted 0.99;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    top_heap_words = max !top_heap g1.Gc.top_heap_words;
    compactions = g1.Gc.compactions - g0.Gc.compactions;
    max_rss_kb = read_max_rss_kb ();
  }
