(* The benchmark's inputs, the timed request pipeline and the untimed
   verifier.  Only default code paths of the public library API are
   called: no kernel, pricing or evaluator overrides. *)

open Vpart

(* The paper's §5 settings.  λ = 0.9 is the repo's documented reading of
   the paper's "λ = 0.1" (DESIGN.md, λ semantics). *)
let p = 8.
let lambda = 0.9
let gap = 1e-3
let time_limit = 60.

let qp_options ~sites ~exact =
  {
    Qp_solver.default_options with
    num_sites = sites;
    p;
    lambda;
    gap;
    time_limit;
    certify = true;
    certify_exact = exact;
  }

let sa_options ~sites ~seed ~replicated =
  {
    Sa_solver.default_options with
    Sa_solver.num_sites = sites;
    p;
    lambda;
    seed;
    allow_replication = replicated;
    certify = true;
  }

type solver = Qp of Qp_solver.options | Sa of Sa_solver.options

let serialise inst = Json.to_string ~minify:true (Codec.instance_to_json inst)

(* Scales the query frequencies of each transaction by one factor drawn
   from U(0.5, 1.5) per transaction: a perturbation around the paper's
   uniform-frequency assumption (§5.2). *)
let scale_frequencies rng (inst : Instance.t) =
  let w = inst.Instance.workload in
  let factor =
    Array.init (Workload.num_transactions w) (fun _ -> 0.5 +. Rng.float rng)
  in
  let queries =
    List.init (Workload.num_queries w) (fun q ->
        let query = Workload.query w q in
        {
          query with
          Workload.freq =
            query.Workload.freq *. factor.(Workload.txn_of_query w q);
        })
  in
  let transactions =
    List.init (Workload.num_transactions w) (Workload.transaction w)
  in
  Instance.make ~name:inst.Instance.name inst.Instance.schema
    (Workload.make ~queries ~transactions)

(* ------------------------------------------------------------------ *)
(* The timed pipeline                                                  *)
(* ------------------------------------------------------------------ *)

type answer = Qp_answer of Qp_solver.result | Sa_answer of Sa_solver.result

type output = {
  instance : Instance.t;
  lint : Vpart_analysis.Diagnostic.t list;
  answer : answer option;  (* [None] when lint refused the instance *)
  emitted : string;        (* the partitioning JSON; "" without one *)
}

(* Parse, lint, solve, emit.  Spans around the steps the libraries do not
   span themselves; they cost one flag test when no sink is installed. *)
let run solver text =
  let instance =
    Obs.with_span "bench.parse" (fun () ->
        Codec.instance_of_json (Json.of_string text))
  in
  let lint = Obs.with_span "bench.lint" (fun () -> Instance_lint.lint instance) in
  if Vpart_analysis.Diagnostic.has_errors lint then
    { instance; lint; answer = None; emitted = "" }
  else begin
    let answer, part =
      match solver with
      | Qp options ->
        let r = Qp_solver.solve ~options instance in
        (Qp_answer r, r.Qp_solver.partitioning)
      | Sa options ->
        let r = Sa_solver.solve ~options instance in
        (Sa_answer r, Some r.Sa_solver.partitioning)
    in
    let emitted =
      match part with
      | None -> ""
      | Some part ->
        Obs.with_span "bench.emit" (fun () ->
            Json.to_string ~minify:true
              (Codec.partitioning_to_json instance part))
    in
    { instance; lint; answer = Some answer; emitted }
  end

(* ------------------------------------------------------------------ *)
(* The verifier (outside the timed interval)                           *)
(* ------------------------------------------------------------------ *)

let clean = function
  | None -> false
  | Some ds -> not (Vpart_analysis.Diagnostic.has_errors ds)

let agrees ~claimed v =
  Float.abs (v -. claimed) <= 1e-9 *. Float.max 1. (Float.abs claimed)

type verdict = {
  ratio : float;  (* returned cost ÷ single-site cost *)
  layout : Partitioning.t;
  stats : Stats.t;
}

(* [Ok verdict] when every claim of the answer holds; [Error reason]
   names the first one that does not. *)
let verify (out : output) =
  let ( let* ) = Result.bind in
  let* answer =
    match out.answer with
    | None -> Error "instance lint found errors"
    | Some a -> Ok a
  in
  let stats = Stats.compute out.instance ~p in
  let single = Cost_model.cost stats (Partitioning.single_site out.instance) in
  let* claimed =
    match answer with
    | Qp_answer r ->
      let* () =
        match r.Qp_solver.outcome with
        | Qp_solver.Proved_optimal -> Ok ()
        | _ -> Error "QP solve did not prove optimality"
      in
      let* () =
        if clean r.Qp_solver.certificate then Ok ()
        else Error "float certificate has errors"
      in
      let* () =
        match r.Qp_solver.exact with
        | None -> Ok ()
        | Some report ->
          let _, _, refuted, _ = Vpart_certify.Certify.Exact.counts report in
          if refuted = 0 then Ok ()
          else Error (Printf.sprintf "exact audit refuted %d claims" refuted)
      in
      Option.to_result ~none:"no cost returned" r.Qp_solver.cost
    | Sa_answer r ->
      let* () =
        if clean r.Sa_solver.certificate then Ok ()
        else Error "float certificate has errors"
      in
      if r.Sa_solver.cost <= single *. (1. +. 1e-9) then Ok r.Sa_solver.cost
      else Error "SA cost exceeds the single-site cost"
  in
  let* layout =
    try Ok (Codec.partitioning_of_json out.instance (Json.of_string out.emitted))
    with e -> Error ("emitted partitioning does not parse: " ^ Printexc.to_string e)
  in
  let* () =
    Result.map_error
      (fun m -> "emitted partitioning is invalid: " ^ m)
      (Partitioning.validate stats layout)
  in
  let recost = Cost_model.cost stats layout in
  if agrees ~claimed recost then Ok { ratio = claimed /. single; layout; stats }
  else
    Error
      (Printf.sprintf "re-costed emitted partitioning %.17g <> claimed %.17g"
         recost claimed)

(* A batch response carries no layout, so its claims are checked against
   the single-site layout instead: an optimum within the gap can never
   score worse on objective (6) than that feasible point. *)
let verify_response (instance : Instance.t) (r : Batch.response) =
  let stats = Stats.compute instance ~p in
  let layout = Partitioning.single_site instance in
  let single_obj = Cost_model.objective stats ~lambda layout in
  match (r.Batch.ok, r.Batch.outcome, r.Batch.cost, r.Batch.objective6) with
  | false, outcome, _, _ ->
    Error
      (Option.value r.Batch.error
         ~default:("response not ok: " ^ outcome ^ ", or certificate has errors"))
  | true, "optimal", Some cost, Some obj ->
    if obj <= (single_obj *. (1. +. gap)) +. (1e-9 *. Float.abs single_obj)
    then Ok { ratio = cost /. Cost_model.cost stats layout; layout; stats }
    else Error "objective (6) exceeds the single-site layout's"
  | true, outcome, _, _ -> Error ("QP solve ended " ^ outcome)
