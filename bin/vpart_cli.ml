(* vpart: command-line front end for the vertical partitioning library.

     vpart info     --tpcc | --instance FILE | --random NAME
     vpart check    FILE... [--strict] [--format json]  (instance lint)
     vpart analyze  FILE... [--sites N] [--format json] (model N/S analysis)
     vpart solve    [--solver sa|qp|iter|greedy|affinity] [--sites N]
                    [--lint-model] [--exact] (--tpcc | ...)  (certified)
     vpart certify  FILE... [--solver qp|sa|iter]  (solve + certificates)
     vpart gen      --random NAME [-o FILE]
     vpart export   --tpcc [-o FILE]         (instance as JSON)
     vpart mps      --tpcc --sites N [-o FILE]  (MIP (7) in MPS format)
*)

open Cmdliner
open Vpart
module Diagnostic = Vpart_analysis.Diagnostic

(* Machine-readable diagnostics, shared by `check --format json` and
   `analyze --format json`: stable code/severity/message fields, identical
   findings collapsed with a count (mirroring Diagnostic.pp_report). *)
let findings_to_json ds =
  Json.List
    (List.map
       (fun ((d : Diagnostic.t), n) ->
          Json.Obj
            [
              ("code", Json.String d.Diagnostic.code);
              ("severity",
               Json.String (Diagnostic.severity_label d.Diagnostic.severity));
              ("message", Json.String d.Diagnostic.message);
              ("count", Json.Int n);
            ])
       (Diagnostic.dedup (Diagnostic.sort ds)))

let report_to_json ?(extra = []) ~file ds =
  Json.Obj
    (("file", Json.String file)
     :: extra
     @ [
         ("findings", findings_to_json ds);
         ("errors", Json.Int (Diagnostic.count Diagnostic.Error ds));
         ("warnings", Json.Int (Diagnostic.count Diagnostic.Warning ds));
         ("infos", Json.Int (Diagnostic.count Diagnostic.Info ds));
       ])

(* Machine-readable exact-audit report (`certify --exact --format json`):
   per-check exact/float verdict pairs with the residual as an exact
   rational string, plus the E-code findings in the shared
   code/severity/message/count encoding. *)
let exact_to_json (r : Vpart_certify.Certify.Exact.report) =
  let module E = Vpart_certify.Certify.Exact in
  let module Q = Vpart_rational.Rational in
  let valid, masked, refuted, unchecked = E.counts r in
  Json.Obj
    [
      ("checks",
       Json.List
         (List.map
            (fun (c : E.check) ->
               Json.Obj
                 [
                   ("claim", Json.String c.E.claim);
                   ("code", Json.String c.E.code);
                   ("float", Json.String (if c.E.float_ok then "pass" else "fail"));
                   ("verdict", Json.String (E.verdict_label c.E.verdict));
                   ("residual", Json.String (Q.to_string c.E.residual));
                   ("threshold", Json.Float c.E.threshold);
                 ])
            r.E.checks));
      ("findings", findings_to_json r.E.findings);
      ("valid", Json.Int valid);
      ("masked", Json.Int masked);
      ("refuted", Json.Int refuted);
      ("unchecked", Json.Int unchecked);
      ("worst_masked",
       match E.worst_masked r with
       | None -> Json.Null
       | Some c ->
         Json.Obj
           [
             ("claim", Json.String c.E.claim);
             ("residual", Json.String (Q.to_string c.E.residual));
             ("threshold", Json.Float c.E.threshold);
           ]);
    ]

let format_term =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text) (human-readable report) or $(b,json) \
           (machine-readable; one object per file with stable \
           code/severity/message/count fields).")

(* ------------------------------------------------------------------ *)
(* Instance sources                                                    *)
(* ------------------------------------------------------------------ *)

let instance_term =
  let tpcc =
    Arg.(value & flag & info [ "tpcc" ] ~doc:"Use the built-in TPC-C v5 instance.")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "i"; "instance" ] ~docv:"FILE"
          ~doc:"Load an instance from a JSON file (see Codec).")
  in
  let random =
    Arg.(
      value
      & opt (some string) None
      & info [ "random" ] ~docv:"NAME"
          ~doc:
            "Generate a named random instance from the paper's Table 2 \
             catalog (e.g. rndAt8x15).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "gen-seed" ] ~docv:"N" ~doc:"Seed for --random generation.")
  in
  let builtin =
    Arg.(
      value
      & opt (some string) None
      & info [ "builtin" ] ~docv:"NAME"
          ~doc:
            "Use a built-in instance: $(b,tpcc), $(b,tatp), $(b,smallbank) \
             or $(b,voter).")
  in
  let combine tpcc file random builtin seed =
    match (tpcc, file, random, builtin) with
    | true, None, None, None -> Ok (Lazy.force Tpcc.instance)
    | false, None, None, Some name -> (
      match String.lowercase_ascii name with
      | "tpcc" | "tpc-c" -> Ok (Lazy.force Tpcc.instance)
      | "tatp" -> Ok (Lazy.force Tatp.instance)
      | "smallbank" -> Ok (Lazy.force Smallbank.instance)
      | "voter" -> Ok (Lazy.force Voter.instance)
      | other ->
        Error (`Msg (Printf.sprintf "unknown built-in %S (tpcc|tatp|smallbank|voter)" other)))
    | false, Some f, None, None -> (
      try Ok (Codec.load_instance f) with
      | Sys_error e -> Error (`Msg e)
      | Json.Parse_error e -> Error (`Msg ("parse error: " ^ e))
      | Invalid_argument e -> Error (`Msg e))
    | false, None, Some name, None -> (
      match Instance_gen.find name with
      | params -> Ok (Instance_gen.generate ~seed params)
      | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown instance %S; known: %s" name
                (String.concat ", "
                   (List.map
                      (fun p -> p.Instance_gen.name)
                      Instance_gen.catalog)))))
    | _ ->
      Error
        (`Msg
           "choose exactly one of --tpcc, --builtin NAME, --instance FILE, \
            --random NAME")
  in
  Term.(term_result (const combine $ tpcc $ file $ random $ builtin $ seed))

let output_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write output to $(docv).")

let write_output output content =
  match output with
  | None -> print_string content
  | Some path ->
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc;
    Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Common solver options                                               *)
(* ------------------------------------------------------------------ *)

(* [base] narrowed to the values satisfying [ok], so an out-of-range
   value is a command-line error rather than a failure deep in a solver;
   [what] describes the accepted range in the error message. *)
let checked base ~what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int = checked Arg.int ~what:"an integer >= 1" (fun n -> n >= 1)

let non_negative_float =
  checked Arg.float ~what:"a finite number >= 0" (fun v ->
      Float.is_finite v && v >= 0.)

let sites_term =
  Arg.(
    value
    & opt positive_int 2
    & info [ "s"; "sites" ] ~docv:"N" ~doc:"Number of sites.")

let p_term =
  Arg.(
    value
    & opt non_negative_float 8.
    & info [ "p" ] ~docv:"P"
        ~doc:"Network penalty factor (0 = local placement; paper default 8).")

let lambda_term =
  Arg.(
    value
    & opt
        (checked float ~what:"a finite number in [0, 1]" (fun v ->
             Float.is_finite v && v >= 0. && v <= 1.))
        0.9
    & info [ "lambda" ] ~docv:"L"
        ~doc:
          "Weight of total cost vs. load balancing in objective (6); 1.0 = \
           pure cost minimization.")

(* A NaN limit would never trip the deadline test, so it is rejected
   here rather than silently meaning "no limit". *)
let time_limit_term ~default ~doc =
  Arg.(
    value & opt non_negative_float default
    & info [ "time-limit" ] ~docv:"S" ~doc)

(* The qp, sa and iter options of `solve` and `certify`: every solve
   certifies its claims, in rational arithmetic too with [exact].  The
   annealer runs without a time limit unless [sa_time_limit] is given. *)
let solver_options ?(disjoint = false) ?(no_grouping = false) ?(seed = 1)
    ?(jobs = 1) ?sa_time_limit ~sites ~p ~lambda ~time_limit ~exact () =
  let qp =
    { Qp_solver.default_options with
      Qp_solver.num_sites = sites;
      p;
      lambda;
      allow_replication = not disjoint;
      use_grouping = not no_grouping;
      time_limit;
      certify = true;
      certify_exact = exact;
      jobs;
    }
  in
  ( qp,
    { Sa_solver.default_options with
      Sa_solver.num_sites = sites;
      p;
      lambda;
      allow_replication = not disjoint;
      use_grouping = not no_grouping;
      seed;
      time_limit = sa_time_limit;
      certify = true;
      certify_exact = exact;
      restarts = jobs;
      jobs;
    },
    { Iterative_solver.default_options with Iterative_solver.qp } )

let disjoint_term =
  Arg.(
    value & flag
    & info [ "disjoint" ] ~doc:"Forbid attribute replication (disjoint mode).")

let no_grouping_term =
  Arg.(
    value & flag
    & info [ "no-grouping" ]
        ~doc:"Disable the reasonable-cuts attribute grouping reduction.")

let jobs_term =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to use (default 1).  For $(b,solve) this parallelizes \
           the solver itself: the QP branch-and-bound dives into open \
           subtrees concurrently and the SA runs an $(docv)-chain \
           portfolio with best-layout exchange.  \
           For $(b,check) and $(b,certify) it fans the instance files out \
           across domains.  See docs/PARALLELISM.md.")

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run inst =
    Format.printf "%a@.@.%a@.%a@." Instance.pp_summary inst Schema.pp
      inst.Instance.schema Workload.pp inst.Instance.workload;
    let stats = Stats.compute inst ~p:8. in
    let single = Partitioning.single_site inst in
    Format.printf "single-site cost (objective 4, p=8): %.4g@."
      (Cost_model.cost stats single);
    let g = Grouping.compute inst in
    Format.printf "reasonable-cuts groups: %d (of %d attributes)@."
      (Grouping.num_groups g) (Instance.num_attrs inst)
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe an instance.")
    Term.(const run $ instance_term)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let files_term =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Instance JSON file(s) to analyse.")
  in
  let strict_term =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Promote warnings to errors (non-zero exit).")
  in
  let run files strict format jobs =
    (* Lint every file independently (possibly across domains), then print
       the reports in command-line order — the output is identical for
       every --jobs value. *)
    let check_one file =
      let diags =
        match Codec.load_instance file with
        | inst -> Instance_lint.lint inst
        | exception Sys_error e ->
          [ Diagnostic.error ~code:"I001" "cannot read instance: %s" e ]
        | exception Json.Parse_error e ->
          [ Diagnostic.error ~code:"I001" "JSON parse error: %s" e ]
        | exception Invalid_argument e ->
          [ Diagnostic.error ~code:"I001" "malformed instance: %s" e ]
      in
      let diags = if strict then Diagnostic.promote_warnings diags else diags in
      (file, diags)
    in
    let results =
      Par.with_pool ~jobs:(max 1 jobs) @@ fun pool ->
      Par.map_list pool check_one files
    in
    (match format with
     | `Text ->
       List.iter
         (fun (file, diags) ->
            Format.printf "@[<v>%s:@,%a@]@." file Report.pp_diagnostics diags)
         results
     | `Json ->
       print_string
         (Json.to_string
            (Json.List
               (List.map (fun (file, ds) -> report_to_json ~file ds) results)));
       print_newline ());
    let total_errors =
      List.fold_left
        (fun acc (_, ds) -> acc + List.length (Diagnostic.errors ds))
        0 results
    in
    if total_errors > 0 then begin
      if format = `Text then
        Format.printf "check failed: %d error(s)@." total_errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the static-analysis pass over instance files: referential \
          integrity, statistics sanity and degenerate-workload findings \
          (see docs/ANALYSIS.md for the code catalog).  Exits non-zero if \
          any Error-level finding is present.")
    Term.(const run $ files_term $ strict_term $ format_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

module Numerics_lint = Vpart_analysis.Numerics_lint
module Structure = Vpart_analysis.Structure

let analyze_cmd =
  let files_term =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Instance JSON file(s) whose layout model to analyse.")
  in
  let strict_term =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Promote warnings to errors (non-zero exit).")
  in
  let solve_root_term =
    Arg.(
      value & flag
      & info [ "solve-root" ]
          ~doc:
            "Also solve the root LP relaxation and translate the simplex \
             kernel's counters (iterations, drift/recovery \
             refactorizations, updates per factorization) into \
             runtime-feedback \
             diagnostics ($(b,N101)/$(b,N102)) — closing the loop between \
             static prediction and observed behaviour.")
  in
  let profile_to_json (pr : Structure.profile) =
    Json.Obj
      [
        ("rows", Json.Int pr.Structure.p_nrows);
        ("cols", Json.Int pr.Structure.p_ncols);
        ("nnz", Json.Int pr.Structure.p_nnz);
        ("density", Json.Float pr.Structure.p_density);
        ("max_row_nnz", Json.Int pr.Structure.p_max_row_nnz);
        ("bandwidth", Json.Int pr.Structure.p_bandwidth);
        ("avg_bandwidth", Json.Float pr.Structure.p_avg_bandwidth);
        ("blocks",
         Json.List
           (List.map
              (fun (b : Structure.block) ->
                 Json.Obj
                   [
                     ("rows", Json.Int b.Structure.b_rows);
                     ("cols", Json.Int b.Structure.b_cols);
                     ("nnz", Json.Int b.Structure.b_nnz);
                   ])
              pr.Structure.p_blocks));
        ("fill_in",
         match pr.Structure.p_fill_in with
         | Some f -> Json.Int f
         | None -> Json.Null);
        ("fill_capped", Json.Bool pr.Structure.p_fill_capped);
        ("orbits", Json.List (List.map (fun n -> Json.Int n) pr.Structure.p_orbits));
      ]
  in
  (* The root LP of the model branch-and-bound searches, under the row
     cap Mip.solve applies by default. *)
  let root_feedback std =
    match Mip.default_limits.Mip.max_rows with
    | Some cap when std.Lp.nrows > cap ->
      [
        Diagnostic.info ~code:"N101"
          "root LP not solved: %d rows exceed the %d-row analysis cap"
          std.Lp.nrows cap;
      ]
    | _ ->
      let sx = Simplex.create (snd (Scaling.equilibrate std)) in
      ignore (Simplex.reoptimize sx);
      Numerics_lint.runtime_feedback
        ~iterations:(Simplex.iterations sx)
        ~refactorizations:(Simplex.refactorizations sx)
        ~drift_rebuilds:(Simplex.drift_rebuilds sx)
        ~recovery_rebuilds:(Simplex.recovery_rebuilds sx)
        ~max_updates:(Simplex.max_updates_per_factor sx)
  in
  let run files sites p lambda disjoint no_grouping strict format solve_root
      jobs =
    (* Analyse every file independently (possibly across domains), then
       print the reports in command-line order. *)
    let analyze_one file =
      match Codec.load_instance file with
      | exception Sys_error e ->
        (file, [ Diagnostic.error ~code:"I001" "cannot read instance: %s" e ],
         None)
      | exception Json.Parse_error e ->
        (file, [ Diagnostic.error ~code:"I001" "JSON parse error: %s" e ],
         None)
      | exception Invalid_argument e ->
        (file, [ Diagnostic.error ~code:"I001" "malformed instance: %s" e ],
         None)
      | inst ->
        let grouping =
          if no_grouping then Grouping.identity inst else Grouping.compute inst
        in
        let stats = Stats.compute grouping.Grouping.reduced ~p in
        let opts =
          { Qp_solver.default_options with
            Qp_solver.num_sites = sites;
            p;
            lambda;
            allow_replication = not disjoint;
          }
        in
        let model, _ = Qp_solver.build_model stats opts in
        let std = Lp.standardize model in
        let profile = Structure.profile std in
        let diags =
          Vpart_analysis.Model_lint.lint_model model
          @ Numerics_lint.lint ~var_name:(Lp.var_name model) std
          @ Structure.lint_profile profile
          @ (if solve_root then root_feedback std else [])
        in
        (file, diags, Some profile)
    in
    let results =
      Par.with_pool ~jobs:(max 1 jobs) @@ fun pool ->
      Par.map_list pool analyze_one files
    in
    let results =
      List.map
        (fun (file, ds, pr) ->
           (file, (if strict then Diagnostic.promote_warnings ds else ds), pr))
        results
    in
    (match format with
     | `Text ->
       List.iter
         (fun (file, ds, pr) ->
            (match pr with
             | None -> Format.printf "@[<v>%s:@]@." file
             | Some pr ->
               Format.printf
                 "@[<v>%s: %d rows, %d cols, %d nnz (density %.3g), \
                  bandwidth %d, %d block(s)@]@."
                 file pr.Structure.p_nrows pr.Structure.p_ncols
                 pr.Structure.p_nnz pr.Structure.p_density
                 pr.Structure.p_bandwidth
                 (List.length pr.Structure.p_blocks));
            Format.printf "@[<v>%a@]@." Report.pp_diagnostics ds)
         results
     | `Json ->
       print_string
         (Json.to_string
            (Json.List
               (List.map
                  (fun (file, ds, pr) ->
                     let extra =
                       match pr with
                       | None -> []
                       | Some pr -> [ ("profile", profile_to_json pr) ]
                     in
                     report_to_json ~extra ~file ds)
                  results)));
       print_newline ());
    let total_errors =
      List.fold_left
        (fun acc (_, ds, _) -> acc + List.length (Diagnostic.errors ds))
        0 results
    in
    if total_errors > 0 then begin
      if format = `Text then
        Format.printf "analyze failed: %d error(s)@." total_errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Build the linearized layout MIP (7) for each instance and run the \
          numerical/structural static-analysis passes over it: conditioning \
          and scaling ($(b,N001)-$(b,N008)), sparsity, block structure, \
          fill-in and symmetry orbits ($(b,S001)-$(b,S005)); see \
          docs/ANALYSIS.md.  The findings diagnose the model as built: \
          branch-and-bound equilibrates it and pins site symmetry itself, \
          and $(b,--solve-root) solves the equilibrated root.  Exits \
          non-zero if any Error-level finding is present.")
    Term.(
      const run $ files_term $ sites_term $ p_term $ lambda_term
      $ disjoint_term $ no_grouping_term $ strict_term $ format_term
      $ solve_root_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let solve_cmd =
  let solver_term =
    Arg.(
      value
      & opt
          (enum
             [ ("sa", `Sa); ("qp", `Qp); ("iter", `Iter); ("greedy", `Greedy);
               ("affinity", `Affinity) ])
          `Sa
      & info [ "solver" ] ~docv:"SOLVER"
          ~doc:
            "$(b,sa) = simulated annealing; $(b,qp) = exact MIP; $(b,iter) = \
             iterative 20/80 QP; $(b,greedy) = local-search baseline; \
             $(b,affinity) = Navathe-style affinity baseline.")
  in
  let time_limit_term =
    time_limit_term ~default:60. ~doc:"QP solver time limit (seconds)."
  in
  let seed_term =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"SA solver seed.")
  in
  let json_term =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the partitioning as JSON instead of text.")
  in
  let lint_model_term =
    Arg.(
      value & flag
      & info [ "lint-model" ]
          ~doc:
            "Build the linearized MIP (7) for the instance and print its \
             full static-analysis report (all severities) before solving.")
  in
  let trace_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.jsonl"
          ~doc:
            "Write a structured JSONL trace of the solve (spans, counters, \
             incumbent/bound events) to $(docv); inspect it with $(b,vpart \
             trace summarize).  Schema: docs/OBSERVABILITY.md.")
  in
  let progress_term =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print live solve progress (span opens/closes, incumbents, \
             bounds) to stderr.")
  in
  let metrics_term =
    Arg.(
      value & flag
      & info [ "metrics-summary" ]
          ~doc:
            "Collect in-process metrics during the solve and print a \
             counter/gauge/histogram summary afterwards.")
  in
  let gc_stats_term =
    Arg.(
      value & flag
      & info [ "gc-stats" ]
          ~doc:
            "Sample GC counters (minor/major words, heap size, \
             compactions) at every span boundary, as $(b,gc.*) gauges in \
             the trace and metrics summary.  Off by default: existing \
             traces are unchanged.")
  in
  let exact_term =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Additionally re-verify every certificate in exact rational \
             arithmetic (zero tolerance; the [E]-code catalog in \
             docs/ANALYSIS.md), reporting per-check exact/float verdict \
             pairs and failing on exactly-refuted claims.")
  in
  let run inst solver sites p lambda disjoint no_grouping jobs time_limit seed
      json lint_model exact trace progress metrics_summary gc_stats output =
    let jobs = max 1 jobs in
    (* With --json, stdout carries the partitioning and nothing else. *)
    let out = if json then Format.err_formatter else Format.std_formatter in
    if lint_model then begin
      let grouping =
        if no_grouping then Grouping.identity inst else Grouping.compute inst
      in
      let stats = Stats.compute grouping.Grouping.reduced ~p in
      let opts =
        { Qp_solver.default_options with
          Qp_solver.num_sites = sites;
          p;
          lambda;
          allow_replication = not disjoint;
        }
      in
      let model, _ = Qp_solver.build_model stats opts in
      Format.fprintf out "@[<v>model lint (%d rows, %d cols):@,%a@]@."
        (Lp.num_constrs model) (Lp.num_vars model) Report.pp_diagnostics
        (Vpart_analysis.Model_lint.lint_model model)
    end;
    let qp, sa, iter =
      solver_options ~disjoint ~no_grouping ~seed ~jobs ~sites ~p ~lambda
        ~time_limit ~exact ()
    in
    (* Print the certificate verdict and its findings, and with --exact
       the exact report; the partitioning is printed only when neither
       has an Error-level finding. *)
    let answer part cost certificate exact_report =
      Format.fprintf out "%a@." Report.pp_certificate certificate;
      let ds = Option.value certificate ~default:[] in
      if ds <> [] then Format.fprintf out "%a@." Report.pp_diagnostics ds;
      let exact_ds =
        match exact_report with
        | None -> []
        | Some r ->
          Format.fprintf out "%a@." Vpart_certify.Certify.Exact.pp_report r;
          let ds = r.Vpart_certify.Certify.Exact.findings in
          if ds <> [] then Format.fprintf out "%a@." Report.pp_diagnostics ds;
          ds
      in
      if Diagnostic.has_errors ds then
        Error (`Msg "certification failed (see findings above)")
      else if Diagnostic.has_errors exact_ds then
        Error (`Msg "exact audit refuted a certificate (see findings above)")
      else if json then begin
        write_output output
          (Json.to_string (Codec.partitioning_to_json inst part) ^ "\n");
        Ok ()
      end
      else begin
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        Format.fprintf ppf "%a@." (Report.pp_partitioning inst) part;
        Format.fprintf ppf "%a@." (Report.pp_solution_summary inst ~p ~lambda) part;
        Format.fprintf ppf "cost (objective 4): %.6g@." cost;
        Format.pp_print_flush ppf ();
        write_output output (Buffer.contents buf);
        Ok ()
      end
    in
    let answer_opt part cost certificate exact_report =
      match (part, cost) with
      | Some part, Some cost -> answer part cost certificate exact_report
      | _ -> Error (`Msg "no solution found (increase --time-limit?)")
    in
    (* The baselines claim a cost and an objective (6) but no MIP
       artifacts: their domain claims are certified at the annealer's
       tolerance. *)
    let baseline part ~cost ~objective6 =
      let ds, exact_report =
        Solution_certify.certify_claims ~tol:1e-6 ~exact inst
          (Stats.compute inst ~p) ~p ~lambda part ~cost ~objective6
      in
      answer part cost (Some (Diagnostic.sort ds)) exact_report
    in
    (* Observability setup: trace / progress sinks and in-process metrics
       live for the duration of the solve, torn down (and the trace file
       closed) even on errors. *)
    let trace_oc = Option.map open_out trace in
    let sinks =
      (match trace_oc with
       | Some oc -> [ Obs.jsonl_sink (output_string oc) ]
       | None -> [])
      @ (if progress then [ Obs.progress_sink ~ppf:Format.err_formatter () ]
         else [])
    in
    if metrics_summary then begin
      Obs.Metrics.reset ();
      Obs.Metrics.enable ()
    end;
    if gc_stats then Obs.set_gc_sampling true;
    (match sinks with [] -> () | ss -> Obs.set_sink (Some (Obs.tee ss)));
    let teardown_obs () =
      Obs.set_gc_sampling false;
      Obs.set_sink None;
      (match trace_oc with Some oc -> close_out oc | None -> ());
      (match trace with
       | Some f -> Printf.eprintf "trace written to %s\n%!" f
       | None -> ());
      if metrics_summary then begin
        Format.fprintf out "%a@." Obs.Metrics.pp (Obs.Metrics.snapshot ());
        Obs.Metrics.disable ()
      end
    in
    Fun.protect ~finally:teardown_obs @@ fun () ->
    try
      match solver with
    | `Sa ->
      let r = Sa_solver.solve ~options:sa inst in
      Format.fprintf out "SA: %d iterations, %d accepted, %.2fs@."
        r.Sa_solver.iterations r.Sa_solver.accepted r.Sa_solver.elapsed;
      Format.fprintf out "%a@." Report.pp_sa_search r.Sa_solver.search;
      if Array.length r.Sa_solver.chains > 1 then
        Format.fprintf out "%a@." Report.pp_sa_chains r.Sa_solver.chains;
      answer r.Sa_solver.partitioning r.Sa_solver.cost r.Sa_solver.certificate
        r.Sa_solver.exact
    | `Qp ->
      let r = Qp_solver.solve ~options:qp inst in
      Format.fprintf out "QP: %s, %d nodes, %d rows, %.2fs@."
        (match r.Qp_solver.outcome with
         | Qp_solver.Proved_optimal -> "optimal (within MIP gap)"
         | Qp_solver.Limit_feasible -> "feasible (limit hit)"
         | Qp_solver.Limit_no_solution -> "no solution within limit"
         | Qp_solver.Too_large ->
           (match r.Qp_solver.row_limit with
            | Some limit ->
              Printf.sprintf "model too large (%d rows over the %d-row limit)"
                r.Qp_solver.model_rows limit
            | None -> "model too large"))
        r.Qp_solver.nodes r.Qp_solver.model_rows r.Qp_solver.elapsed;
      Format.fprintf out "%a@." Report.pp_mip_kernel r;
      if r.Qp_solver.diagnostics <> [] then
        Format.fprintf out "%a@." Report.pp_diagnostics r.Qp_solver.diagnostics;
      answer_opt r.Qp_solver.partitioning r.Qp_solver.cost
        r.Qp_solver.certificate r.Qp_solver.exact
    | `Iter ->
      let r = Iterative_solver.solve ~options:iter inst in
      Format.fprintf out "iterative: %d rounds, %.2fs@."
        (List.length r.Iterative_solver.rounds)
        r.Iterative_solver.elapsed;
      if r.Iterative_solver.diagnostics <> [] then
        Format.fprintf out "%a@." Report.pp_diagnostics
          r.Iterative_solver.diagnostics;
      answer_opt r.Iterative_solver.partitioning r.Iterative_solver.cost
        r.Iterative_solver.certificate r.Iterative_solver.exact
    | `Greedy ->
      let options =
        { Greedy.default_options with
          Greedy.num_sites = sites;
          p;
          lambda;
          use_grouping = not no_grouping;
        }
      in
      let r = Greedy.solve ~options inst in
      Format.fprintf out "greedy: %d moves, %.2fs@." r.Greedy.moves
        r.Greedy.elapsed;
      baseline r.Greedy.partitioning ~cost:r.Greedy.cost
        ~objective6:r.Greedy.objective6
    | `Affinity ->
      let r =
        Affinity.solve ~options:{ Affinity.num_sites = sites; p; lambda } inst
      in
      baseline r.Affinity.partitioning ~cost:r.Affinity.cost
        ~objective6:r.Affinity.objective6
    with Diagnostic.Errors ds ->
      Format.eprintf "%a@." Report.pp_diagnostics ds;
      Error (`Msg "the built model failed static analysis; refusing to solve")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute a vertical partitioning for an instance.")
    Term.(
      term_result
        (const run $ instance_term $ solver_term $ sites_term $ p_term
         $ lambda_term $ disjoint_term $ no_grouping_term $ jobs_term
         $ time_limit_term $ seed_term $ json_term
         $ lint_model_term $ exact_term $ trace_term $ progress_term $ metrics_term $ gc_stats_term
         $ output_term))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let ( let* ) = Result.bind in
  let file_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.jsonl"
          ~doc:"Trace file written by $(b,vpart solve --trace).")
  in
  (* Shared loader: every trace subcommand validates the schema and the
     span nesting before interpreting anything, so a corrupt trace is a
     per-line diagnostic and a non-zero exit, never a bogus report. *)
  let read_trace file =
    match Obs.Reader.read_file file with
    | Error e -> Error (`Msg ("invalid trace: " ^ e))
    | Ok events -> (
      match Obs.Reader.check_nesting events with
      | Error e -> Error (`Msg ("malformed span nesting: " ^ e))
      | Ok () -> Ok events)
  in
  let summarize_run fmt file =
    let* events = read_trace file in
    (match fmt with
     | `Text ->
       Format.printf "%a@." Obs.Summary.pp (Obs.Summary.of_events events)
     | `Json ->
       print_endline
         (Json.to_string (Obs.Summary.to_json (Obs.Summary.of_events events))));
    Ok ()
  in
  let summarize_cmd =
    Cmd.v
      (Cmd.info "summarize"
         ~doc:
           "Validate a JSONL solve trace against the event schema \
            (docs/OBSERVABILITY.md) and reconstruct the solve timeline: \
            per-phase durations, counters, time-to-first-incumbent and the \
            gap-vs-time trajectory.  Exits non-zero on schema or span-nesting \
            violations.")
      Term.(term_result (const summarize_run $ format_term $ file_term))
  in
  let flame_cmd =
    let fmt_term =
      Arg.(
        value
        & opt
            (enum
               [
                 ("folded", `Folded); ("speedscope", `Speedscope); ("text", `Text);
               ])
            `Folded
        & info [ "format" ] ~docv:"FMT"
            ~doc:
              "Output format: $(b,folded) (flamegraph.pl / inferno folded \
               stacks, one $(i,path;to;span microseconds) line per span \
               path), $(b,speedscope) (speedscope.app JSON, exact per-domain \
               timeline) or $(b,text) (indented aggregate tree).")
    in
    let run fmt output file =
      let* events = read_trace file in
      let content =
        match fmt with
        | `Folded -> Profile.to_folded (Profile.of_events events)
        | `Speedscope ->
          Json.to_string (Profile.speedscope ~name:(Filename.basename file) events)
          ^ "\n"
        | `Text -> Format.asprintf "%a" Profile.pp (Profile.of_events events)
      in
      write_output output content;
      Ok ()
    in
    Cmd.v
      (Cmd.info "flame"
         ~doc:
           "Fold a validated trace into an aggregated span-path profile \
            (self/total time, call counts, counter attribution) and export \
            it as folded flamegraph stacks or speedscope JSON.")
      Term.(term_result (const run $ fmt_term $ output_term $ file_term))
  in
  let diff_cmd =
    let baseline_term =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"BASELINE.jsonl" ~doc:"Baseline trace.")
    in
    let current_term =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"CURRENT.jsonl" ~doc:"Trace to compare against it.")
    in
    let threshold_term =
      Arg.(
        value
        & opt float Bench_compare.trace_options.Bench_compare.tolerance_pct
        & info [ "threshold" ] ~docv:"PCT"
            ~doc:
              "Relative noise band: rows moving less than $(docv) percent \
               (or less than the absolute floor) are unchanged.")
    in
    let gate_term =
      Arg.(
        value & flag
        & info [ "gate" ]
            ~doc:
              "Exit non-zero when any row regresses (for CI use; the \
               default is informational exit 0).")
    in
    let min_span_term =
      Arg.(
        value
        & opt float Bench_compare.trace_options.Bench_compare.abs_floor
        & info [ "min-span" ] ~docv:"SECONDS"
            ~doc:
              "Absolute floor: span-time and counter-total rows whose delta \
               is below $(docv) are unchanged regardless of the relative \
               threshold.  \
               Raise it when diffing runs with disjoint instrumentation \
               (e.g. runs of different builds that open different span \
               names, which would otherwise always read as \
               appeared-from-nothing regressions).")
    in
    let run fmt threshold min_span gate baseline current =
      let* base = read_trace baseline in
      let* cur = read_trace current in
      let options =
        { Bench_compare.tolerance_pct = threshold; abs_floor = min_span }
      in
      let report =
        Bench_compare.compare_traces ~options ~baseline:base ~current:cur ()
      in
      (match fmt with
       | `Text -> Format.printf "%a" Bench_compare.pp report
       | `Json ->
         print_endline (Json.to_string (Bench_compare.to_json report)));
      if gate && not (Bench_compare.passed report) then
        Error
          (`Msg
             (Printf.sprintf "%d regressed row(s) beyond the noise threshold"
                report.Bench_compare.regressions))
      else Ok ()
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Align two traces by span path and counter name and report \
            per-phase time/count deltas with a verdict per row, under the \
            same policy as $(b,bench-check): span time and counter totals \
            gate lower-is-better beyond the relative threshold and the \
            absolute floor; span calls and counter event counts are \
            informational.")
      Term.(
        term_result
          (const run $ format_term $ threshold_term $ min_span_term $ gate_term
           $ baseline_term $ current_term))
  in
  let tree_cmd =
    let fmt_term =
      Arg.(
        value
        & opt (enum [ ("dot", `Dot); ("json", `Json); ("text", `Text) ]) `Dot
        & info [ "format" ] ~docv:"FMT"
            ~doc:
              "Output format: $(b,dot) (Graphviz digraph, nodes coloured by \
               prune reason), $(b,json) (round-trips through the reader) or \
               $(b,text) (one line per node).")
    in
    let run fmt output file =
      let* events = read_trace file in
      let tree = Trace_tree.of_events events in
      let content =
        match fmt with
        | `Dot -> Trace_tree.to_dot tree
        | `Json -> Json.to_string (Trace_tree.to_json tree) ^ "\n"
        | `Text -> Format.asprintf "%a" Trace_tree.pp tree
      in
      write_output output content;
      Ok ()
    in
    Cmd.v
      (Cmd.info "tree"
         ~doc:
           "Re-derive the branch-and-bound tree from the trace's \
            mip.node/incumbent/bound/prune events (node depth, bound, prune \
            reason) and export it as Graphviz DOT or JSON.")
      Term.(term_result (const run $ fmt_term $ output_term $ file_term))
  in
  let trajectory_cmd =
    let curve_term =
      Arg.(
        value
        & opt (enum [ ("gap", `Gap); ("sa", `Sa) ]) `Gap
        & info [ "curve" ] ~docv:"CURVE"
            ~doc:
              "Which curve to export: $(b,gap) (B&B incumbent/bound/gap vs \
               time) or $(b,sa) (simulated-annealing \
               temperature/acceptance/objective per epoch).")
    in
    let run curve output file =
      let* events = read_trace file in
      let content =
        match curve with
        | `Gap -> Trajectory.gap_csv events
        | `Sa -> Trajectory.sa_csv events
      in
      write_output output content;
      Ok ()
    in
    Cmd.v
      (Cmd.info "trajectory"
         ~doc:
           "Export the search trajectory as plot-ready CSV: the gap-vs-time \
            curve from mip.incumbent/mip.bound events, or the SA \
            temperature/acceptance schedule from sa.epoch events.")
      Term.(term_result (const run $ curve_term $ output_term $ file_term))
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect structured solve traces.")
    [ summarize_cmd; flame_cmd; diff_cmd; tree_cmd; trajectory_cmd ]

(* ------------------------------------------------------------------ *)
(* bench-check                                                         *)
(* ------------------------------------------------------------------ *)

let bench_check_cmd =
  let json_file docv doc =
    Arg.(
      required
      & opt (some file) None
      & info [ String.lowercase_ascii docv ] ~docv ~doc)
  in
  let baseline_term =
    json_file "BASELINE" "Committed bench JSON to compare against."
  in
  let current_term = json_file "CURRENT" "Freshly generated bench JSON." in
  let tolerance_term =
    Arg.(
      value
      & opt float Bench_compare.default_options.Bench_compare.tolerance_pct
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Relative tolerance band for timing-class metrics (percent).  \
             The default is deliberately wide: the gate catches cliffs, not \
             noise.")
  in
  let floor_term =
    Arg.(
      value
      & opt float Bench_compare.default_options.Bench_compare.abs_floor
      & info [ "abs-floor" ] ~docv:"S"
          ~doc:
            "Absolute floor: timing moves smaller than $(docv) seconds never \
             gate, whatever the relative change.")
  in
  let run fmt tolerance abs_floor baseline current =
    let load what path =
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | json -> Ok json
      | exception Sys_error e -> Error (`Msg e)
      | exception Json.Parse_error e ->
        Error (`Msg (Printf.sprintf "%s: JSON parse error: %s" what e))
    in
    let ( let* ) = Result.bind in
    let* base = load "baseline" baseline in
    let* cur = load "current" current in
    let options = { Bench_compare.tolerance_pct = tolerance; abs_floor } in
    let report = Bench_compare.compare ~options ~baseline:base ~current:cur () in
    (match fmt with
     | `Text -> Format.printf "%a" Bench_compare.pp report
     | `Json -> print_endline (Json.to_string (Bench_compare.to_json report)));
    if Bench_compare.passed report then Ok ()
    else
      Error
        (`Msg
           (Printf.sprintf "bench regression gate failed: %d regression(s), %d missing metric(s)"
              report.Bench_compare.regressions report.Bench_compare.missing))
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Compare two versioned bench JSON files (bench --json-out) metric \
          by metric against per-metric tolerance bands and exit non-zero on \
          regression or on a metric that silently disappeared.  \
          Lower-is-better (seconds/overhead/latency) and higher-is-better \
          (per-second/speedup) metrics gate; counts are informational.  \
          Provenance mismatches (host core count, OCaml version, schema \
          version) are reported as warnings.")
    Term.(
      term_result
        (const run $ format_term $ tolerance_term $ floor_term $ baseline_term
         $ current_term))

(* ------------------------------------------------------------------ *)
(* certify                                                             *)
(* ------------------------------------------------------------------ *)

let certify_cmd =
  let files_term =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Instance JSON file(s) to solve and certify.")
  in
  let solver_term =
    Arg.(
      value
      & opt (enum [ ("qp", `Qp); ("sa", `Sa); ("iter", `Iter) ]) `Qp
      & info [ "solver" ] ~docv:"SOLVER"
          ~doc:"Solver whose claims to certify: $(b,qp), $(b,sa) or $(b,iter).")
  in
  let time_limit_term =
    time_limit_term ~default:10. ~doc:"Per-instance solve budget (seconds)."
  in
  let exact_term =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Additionally re-verify every certificate in exact rational \
             arithmetic (zero tolerance): per-check exact/float verdict \
             pairs, the worst tolerance-masked residual as an exact \
             rational, and [E]-code findings (docs/ANALYSIS.md).  Exits \
             non-zero on exactly-refuted claims.")
  in
  let run files solver sites p lambda time_limit jobs exact fmt =
    (* Solve + certify every file independently (possibly across domains;
       the per-file solvers stay sequential so the fan-out owns the only
       pool), then print the verdicts in command-line order. *)
    let qp, sa, iter =
      solver_options ~sa_time_limit:time_limit ~sites ~p ~lambda ~time_limit
        ~exact ()
    in
    let certify_one file =
         let cert, exact_report =
           match Codec.load_instance file with
           | exception Sys_error e ->
             (Some [ Diagnostic.error ~code:"I001" "cannot read instance: %s" e ],
              None)
           | exception Json.Parse_error e ->
             (Some [ Diagnostic.error ~code:"I001" "JSON parse error: %s" e ],
              None)
           | exception Invalid_argument e ->
             (Some [ Diagnostic.error ~code:"I001" "malformed instance: %s" e ],
              None)
           | inst -> (
             try
               match solver with
               | `Qp ->
                 let r = Qp_solver.solve ~options:qp inst in
                 (r.Qp_solver.certificate, r.Qp_solver.exact)
               | `Sa ->
                 let r = Sa_solver.solve ~options:sa inst in
                 (r.Sa_solver.certificate, r.Sa_solver.exact)
               | `Iter ->
                 let r = Iterative_solver.solve ~options:iter inst in
                 (r.Iterative_solver.certificate, r.Iterative_solver.exact)
             with Diagnostic.Errors ds -> (Some ds, None))
         in
         (file, cert, exact_report)
    in
    let results =
      Par.with_pool ~jobs:(max 1 jobs) @@ fun pool ->
      Par.map_list pool certify_one files
    in
    let module E = Vpart_certify.Certify.Exact in
    let total_errors =
      match fmt with
      | `Json ->
        let n = ref 0 in
        print_string
          (Json.to_string
             (Json.List
                (List.map
                   (fun (file, cert, ex) ->
                      let ds = Option.value cert ~default:[] in
                      n := !n + List.length (Diagnostic.errors ds);
                      let extra =
                        match ex with
                        | None -> []
                        | Some r ->
                          n :=
                            !n
                            + List.length (Diagnostic.errors r.E.findings);
                          [ ("exact", exact_to_json r) ]
                      in
                      report_to_json ~extra ~file ds)
                   results)));
        print_newline ();
        !n
      | `Text ->
        List.fold_left
          (fun acc (file, cert, ex) ->
             let ds = Option.value cert ~default:[] in
             Format.printf "@[<v>%s: %a@]@." file Report.pp_certificate cert;
             if ds <> [] then Format.printf "%a@." Report.pp_diagnostics ds;
             let acc = acc + List.length (Diagnostic.errors ds) in
             match ex with
             | None -> acc
             | Some r ->
               Format.printf "@[<v>%s: %a@]@." file E.pp_report r;
               if r.E.findings <> [] then
                 Format.printf "%a@." Report.pp_diagnostics r.E.findings;
               acc + List.length (Diagnostic.errors r.E.findings))
          0 results
    in
    if total_errors > 0 then begin
      if fmt = `Text then
        Format.printf "certification failed: %d error(s)@." total_errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Solve each instance and independently certify every claim of the \
          solve: incumbent feasibility against the original model, dual \
          and Farkas bounds, bound/gap bookkeeping, and cost-model agreement \
          via Cost_model.breakdown (the [C]-code catalog in \
          docs/ANALYSIS.md).  Exits non-zero if any certificate has \
          Error-level findings.")
    Term.(
      const run $ files_term $ solver_term $ sites_term $ p_term $ lambda_term
      $ time_limit_term $ jobs_term $ exact_term $ format_term)

(* ------------------------------------------------------------------ *)
(* gen / export                                                        *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let run inst output =
    write_output output (Json.to_string (Codec.instance_to_json inst) ^ "\n")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write an instance (TPC-C, generated, or loaded) as JSON.")
    Term.(const run $ instance_term $ output_term)

(* ------------------------------------------------------------------ *)
(* mps                                                                 *)
(* ------------------------------------------------------------------ *)

let mps_cmd =
  let run inst sites p lambda disjoint no_grouping output =
    let grouping =
      if no_grouping then Grouping.identity inst else Grouping.compute inst
    in
    let stats = Stats.compute grouping.Grouping.reduced ~p in
    let options =
      { Qp_solver.default_options with
        Qp_solver.num_sites = sites;
        p;
        lambda;
        allow_replication = not disjoint;
      }
    in
    let model, _ = Qp_solver.build_model stats options in
    write_output output (Lp.to_mps model)
  in
  Cmd.v
    (Cmd.info "mps"
       ~doc:
         "Export the linearized program (7) in MPS format (for external \
          solvers / debugging).")
    Term.(
      const run $ instance_term $ sites_term $ p_term $ lambda_term
      $ disjoint_term $ no_grouping_term $ output_term)

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

let eval_cmd =
  let part_term =
    Arg.(
      required
      & opt (some file) None
      & info [ "partitioning" ] ~docv:"FILE"
          ~doc:"Partitioning JSON (as written by solve --json).")
  in
  let run inst part_file p lambda =
    match Codec.load_partitioning inst part_file with
    | exception Invalid_argument e -> Error (`Msg e)
    | exception Json.Parse_error e -> Error (`Msg ("parse error: " ^ e))
    | part ->
      let diags = Instance_lint.lint_partitioning inst part in
      (match Diagnostic.has_errors diags with
       | true ->
         Format.eprintf "%a@." Report.pp_diagnostics diags;
         Error (`Msg "invalid partitioning (see diagnostics above)")
       | false ->
         if diags <> [] then Format.printf "%a@." Report.pp_diagnostics diags;
         Format.printf "%a@."
           (Report.pp_solution_summary inst ~p ~lambda) part;
         let c = Engine.run_workload (Engine.deploy inst part) in
         Format.printf "@.storage-engine check (one workload pass):@.%a@."
           Engine.pp_counters c;
         let b = Cost_model.breakdown inst part in
         let differs (_, measured, modelled) =
           Float.abs (measured -. modelled)
           > 1e-9 *. Float.max 1. (Float.abs modelled)
         in
         (match
            List.find_opt differs
              [ ("bytes read", c.Engine.bytes_read, b.Cost_model.read_local);
                ("bytes written", c.Engine.bytes_written, b.Cost_model.write_local);
                ("bytes transferred", c.Engine.bytes_transferred,
                 b.Cost_model.transfer) ]
          with
          | Some (field, measured, modelled) ->
            Error
              (`Msg
                 (Printf.sprintf
                    "storage engine disagrees with the cost model on %s: \
                     measured %.17g, modelled %.17g"
                    field measured modelled))
          | None ->
            Format.printf "agrees with cost model@.";
            Format.printf "@.latency estimate (Appendix A, pl = 1): %.2f@."
              (Cost_model.latency inst ~pl:1. part);
            Ok ()))
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate a stored partitioning against an instance (cost model \
             + storage-engine cross-check); exits non-zero if the engine's \
             byte counts differ from the cost model's.")
    Term.(
      term_result (const run $ instance_term $ part_term $ p_term $ lambda_term))

(* ------------------------------------------------------------------ *)
(* advise                                                              *)
(* ------------------------------------------------------------------ *)

let advise_cmd =
  let part_term =
    Arg.(
      required
      & opt (some file) None
      & info [ "partitioning" ] ~docv:"FILE"
          ~doc:"Partitioning JSON (as written by solve --json).")
  in
  let limit_term =
    Arg.(
      value & opt int 10
      & info [ "limit" ] ~docv:"N" ~doc:"Moves of each kind to display.")
  in
  let run inst part_file p limit =
    match Codec.load_partitioning inst part_file with
    | exception Invalid_argument e -> Error (`Msg e)
    | exception Json.Parse_error e -> Error (`Msg ("parse error: " ^ e))
    | part ->
      (match Advisor.analyze inst ~p part with
       | exception Invalid_argument e -> Error (`Msg e)
       | report ->
         Format.printf "%a@." (Advisor.pp inst ~limit) report;
         let best = Advisor.best_improvement report in
         if best < 0. then
           Format.printf
             "@.best single move improves cost by %.4g — not locally optimal@."
             (-.best)
         else Format.printf "@.locally optimal under single moves@.";
         Ok ())
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"What-if analysis: marginal cost of every single transaction \
             move and replica change.")
    Term.(term_result (const run $ instance_term $ part_term $ p_term $ limit_term))

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let random_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "random" ] ~docv:"NAME"
          ~doc:
            "Catalog instance class to stream (a Table 2 name, e.g. \
             rndAt8x15); defaults to the Table 1 default class.")
  in
  let count_term =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Number of instances to stream.  Generation is lazy: the sweep \
             never materializes more than one window.")
  in
  let seed_term =
    Arg.(
      value & opt int 42
      & info [ "gen-seed" ] ~docv:"N"
          ~doc:"Base seed; streamed instance $(i,i) is generated with seed \
                N+i.")
  in
  let action_term =
    Arg.(
      value & opt string "certify"
      & info [ "action" ] ~docv:"ACTION"
          ~doc:
            "What to do with each instance: $(b,check) (lint + single-site \
             baseline objective) or $(b,certify) (QP solve with \
             self-certification of every claim).")
  in
  let window_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N"
          ~doc:
            "In-flight request bound (default 8 × jobs): instances and \
             responses live at most one window at a time.")
  in
  let tables_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "tables" ] ~docv:"N"
          ~doc:"Override the instance class's table count (small values \
                make per-request latency sub-second for smoke sweeps).")
  in
  let txns_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "txns" ] ~docv:"N"
          ~doc:"Override the instance class's transaction count.")
  in
  let time_limit_term =
    time_limit_term ~default:5. ~doc:"Per-request solver time limit (seconds)."
  in
  let metrics_term =
    Arg.(
      value & flag
      & info [ "metrics-summary" ]
          ~doc:
            "Collect in-process metrics during the sweep and print the \
             counter/gauge/histogram summary to stderr afterwards.")
  in
  let gc_stats_term =
    Arg.(
      value & flag
      & info [ "gc-stats" ]
          ~doc:
            "Sample GC counters at span boundaries as $(b,gc.*) gauges \
             (requires --metrics-summary or a sink to be visible).")
  in
  let run random count seed action jobs window tables txns sites p lambda
      disjoint time_limit metrics_summary gc_stats output =
    match Batch.action_of_string action with
    | None ->
      Error (`Msg (Printf.sprintf "unknown action %S (check|certify)" action))
    | Some action -> (
      match
        match random with
        | None -> Ok Instance_gen.default_params
        | Some name -> (
          try Ok (Instance_gen.find name)
          with Not_found ->
            Error
              (`Msg
                 (Printf.sprintf "unknown instance class %S; known: %s" name
                    (String.concat ", "
                       (List.map
                          (fun p -> p.Instance_gen.name)
                          Instance_gen.catalog)))))
      with
      | Error _ as e -> e
      | Ok params ->
        let params =
          { params with
            Instance_gen.num_tables =
              Option.value tables ~default:params.Instance_gen.num_tables;
            num_transactions =
              Option.value txns ~default:params.Instance_gen.num_transactions;
          }
        in
        if count < 0 then Error (`Msg "--count must be >= 0")
        else if Option.value tables ~default:1 < 1 then
          Error (`Msg "--tables must be >= 1")
        else if Option.value txns ~default:1 < 1 then
          Error (`Msg "--txns must be >= 1")
        else begin
          let jobs = max 1 jobs in
          let options =
            { Qp_solver.default_options with
              Qp_solver.num_sites = sites;
              p;
              lambda;
              allow_replication = not disjoint;
              time_limit;
            }
          in
          if metrics_summary then begin
            Obs.Metrics.reset ();
            Obs.Metrics.enable ()
          end;
          if gc_stats then Obs.set_gc_sampling true;
          let oc = Option.map open_out output in
          let write line =
            match oc with
            | Some oc -> output_string oc line
            | None -> print_string line
          in
          let teardown () =
            Obs.set_gc_sampling false;
            (match oc with Some oc -> close_out oc | None -> ());
            if metrics_summary then begin
              Format.eprintf "%a@." Obs.Metrics.pp (Obs.Metrics.snapshot ());
              Obs.Metrics.disable ()
            end
          in
          let summary =
            Fun.protect ~finally:teardown @@ fun () ->
            Batch.run ~jobs ?window ~options ~action
              ~emit:(fun r ->
                  write
                    (Json.to_string ~minify:true (Batch.response_to_json r)
                     ^ "\n"))
              (Instance_gen.stream ~seed ~count params)
          in
          Format.eprintf "%s@."
            (Json.to_string ~minify:true (Batch.summary_to_json summary));
          if summary.Batch.failures > 0 then
            Error
              (`Msg
                 (Printf.sprintf "%d of %d requests failed"
                    summary.Batch.failures summary.Batch.requests))
          else Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Stream generated instances through the solver at sustained \
          throughput, one JSONL response per line; pooled solver \
          workspaces keep steady-state allocation flat.")
    Term.(
      term_result
        (const run $ random_term $ count_term $ seed_term $ action_term
         $ jobs_term $ window_term $ tables_term $ txns_term $ sites_term
         $ p_term $ lambda_term $ disjoint_term $ time_limit_term
         $ metrics_term $ gc_stats_term $ output_term))

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let doc = "vertical partitioning of relational OLTP databases" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "vpart" ~version:"1.0.0" ~doc)
          [ info_cmd; check_cmd; analyze_cmd; solve_cmd; certify_cmd; eval_cmd;
            advise_cmd; export_cmd; mps_cmd; trace_cmd; bench_check_cmd;
            batch_cmd ]))
