module Diagnostic = Vpart_analysis.Diagnostic

let rel tol reference = tol *. (1. +. Float.abs reference)

let certify_pins ~fixed part =
  let nt = Array.length part.Partitioning.txn_site in
  List.filter_map
    (fun (t, site) ->
       if t < 0 || t >= nt then
         Some
           (Diagnostic.error ~code:"C204"
              "pinned transaction %d is out of range (0..%d)" t (nt - 1))
       else if part.Partitioning.txn_site.(t) <> site then
         Some
           (Diagnostic.error ~code:"C204"
              "pinned transaction %d homed on site %d, but the pin required \
               site %d"
              t
              part.Partitioning.txn_site.(t)
              site)
       else None)
    fixed

(* ------------------------------------------------------------------ *)
(* Exact (rational) re-derivation: E101-E104                           *)
(* ------------------------------------------------------------------ *)

module Exact = struct
  module Q = Vpart_rational.Rational
  module E = Vpart_certify.Certify.Exact

  (* Exact mirror of {!Cost_model.breakdown}: every per-attribute weight
     [width · freq · rows] is the exact product of the embedded raw
     factors — NOT the embedding of the float product the cost model
     computes — so the exact sums are free of both product and
     accumulation roundoff. *)
  type qbreak = {
    read_local : Q.t;
    write_local : Q.t;
    transfer : Q.t;
    site_work : Q.t array;
  }

  let breakdown (inst : Instance.t) (part : Partitioning.t) =
    let schema = inst.Instance.schema and wl = inst.Instance.workload in
    let read_local = ref Q.zero
    and write_local = ref Q.zero
    and transfer = ref Q.zero in
    let site_work = Array.make part.Partitioning.num_sites Q.zero in
    for tx = 0 to Workload.num_transactions wl - 1 do
      let home = part.Partitioning.txn_site.(tx) in
      let txn = Workload.transaction wl tx in
      List.iter
        (fun qid ->
           let q = Workload.query wl qid in
           let freq = Q.of_float q.Workload.freq in
           if Workload.is_write q then begin
             List.iter
               (fun (table, rows) ->
                  let rq = Q.mul freq (Q.of_float rows) in
                  List.iter
                    (fun a ->
                       let wa =
                         Q.mul (Q.of_int (Schema.attr_width schema a)) rq
                       in
                       let row = part.Partitioning.placed.(a) in
                       for s = 0 to part.Partitioning.num_sites - 1 do
                         if row.(s) then begin
                           write_local := Q.add !write_local wa;
                           site_work.(s) <- Q.add site_work.(s) wa
                         end
                       done)
                    (Schema.attrs_of_table schema table))
               q.Workload.tables;
             List.iter
               (fun a ->
                  match
                    Workload.rows_for_table q (Schema.table_of_attr schema a)
                  with
                  | None -> ()
                  | Some rows ->
                    let wa =
                      Q.mul
                        (Q.of_int (Schema.attr_width schema a))
                        (Q.mul freq (Q.of_float rows))
                    in
                    let row = part.Partitioning.placed.(a) in
                    for s = 0 to part.Partitioning.num_sites - 1 do
                      if row.(s) && s <> home then
                        transfer := Q.add !transfer wa
                    done)
               q.Workload.attrs
           end
           else
             List.iter
               (fun (table, rows) ->
                  let rq = Q.mul freq (Q.of_float rows) in
                  List.iter
                    (fun a ->
                       if part.Partitioning.placed.(a).(home) then begin
                         let wa =
                           Q.mul (Q.of_int (Schema.attr_width schema a)) rq
                         in
                         read_local := Q.add !read_local wa;
                         site_work.(home) <- Q.add site_work.(home) wa
                       end)
                    (Schema.attrs_of_table schema table))
               q.Workload.tables)
        txn.Workload.queries
    done;
    {
      read_local = !read_local;
      write_local = !write_local;
      transfer = !transfer;
      site_work;
    }

  let latency (inst : Instance.t) ~pl (part : Partitioning.t) =
    let wl = inst.Instance.workload in
    let total = ref Q.zero in
    for tx = 0 to Workload.num_transactions wl - 1 do
      let home = part.Partitioning.txn_site.(tx) in
      let txn = Workload.transaction wl tx in
      List.iter
        (fun qid ->
           let q = Workload.query wl qid in
           if Workload.is_write q then begin
             let remote = ref false in
             List.iter
               (fun a ->
                  let row = part.Partitioning.placed.(a) in
                  for s = 0 to part.Partitioning.num_sites - 1 do
                    if row.(s) && s <> home then remote := true
                  done)
               q.Workload.attrs;
             if !remote then total := Q.add !total (Q.of_float q.Workload.freq)
           end)
        txn.Workload.queries
    done;
    Q.mul (Q.of_float pl) !total

  let value_report ~claim ~refuted_code ~masked_code ~float_ok ~threshold
      ~exact ~claimed detail =
    let residual = Q.abs (Q.sub exact (Q.of_float claimed)) in
    let verdict = E.classify ~threshold residual in
    let code =
      if verdict = E.Exactly_refuted then refuted_code else masked_code
    in
    let findings =
      match verdict with
      | E.Exactly_refuted ->
        [ Diagnostic.error ~code:refuted_code
            "exactly refuted %s: claimed %g vs exact re-derivation %s — \
             residual %s exceeds the float tolerance %g%s (%s)"
            claim claimed (Q.to_short_string exact)
            (Q.to_short_string residual)
            threshold
            (if float_ok then
               "; float certification passes — tolerance-masked refutation"
             else "")
            (detail ()) ]
      | E.Masked_violation ->
        [ Diagnostic.info ~code:masked_code
            "tolerance-masked %s drift: claimed %g is off the exact \
             re-derivation by %s (within the float tolerance %g; %s)"
            claim claimed
            (Q.to_short_string residual)
            threshold (detail ()) ]
      | _ -> []
    in
    {
      E.checks =
        [ E.make_check ~claim ~code ~float_ok ~threshold residual ];
      findings;
    }

  (* [cost]/[obj6] pair each claim with its float re-derivation and
     threshold, so the exact verdicts are paired with the float ones. *)
  let audit inst ~p ~lambda ?latency:pl part ~cost:(claimed_cost, cost_t, cost_ok)
      ~obj6:(claimed, obj6_t, obj6_ok) =
    Obs.with_span "certify.exact" @@ fun () ->
    Obs.timed "certify.exact.domain.seconds" @@ fun () ->
    let bq = breakdown inst part in
    let cost_q =
      Q.add bq.read_local
        (Q.add bq.write_local (Q.mul (Q.of_float p) bq.transfer))
    in
    let lq = Q.of_float lambda in
    let work_q = Array.fold_left Q.max Q.zero bq.site_work in
    let lat_q =
      match pl with
      | None -> Q.zero
      | Some pl -> Q.mul lq (latency inst ~pl part)
    in
    let exact =
      Q.add (Q.add (Q.mul lq cost_q) (Q.mul (Q.sub Q.one lq) work_q)) lat_q
    in
    let o6 =
      value_report ~claim:"objective (6)" ~refuted_code:"E101"
        ~masked_code:"E102" ~float_ok:obj6_ok ~threshold:obj6_t ~exact
        ~claimed
        (fun () ->
           Printf.sprintf "lambda %g, exact cost %s, exact max site work %s%s"
             lambda (Q.to_short_string cost_q) (Q.to_short_string work_q)
             (if Q.is_zero lat_q then ""
              else
                Printf.sprintf ", exact latency term %s"
                  (Q.to_short_string lat_q)))
    in
    let c4 =
      value_report ~claim:"cost (objective 4)" ~refuted_code:"E103"
        ~masked_code:"E104" ~float_ok:cost_ok ~threshold:cost_t ~exact:cost_q
        ~claimed:claimed_cost
        (fun () ->
           Printf.sprintf "exact read %s + write %s + %g x transfer %s"
             (Q.to_short_string bq.read_local)
             (Q.to_short_string bq.write_local)
             p
             (Q.to_short_string bq.transfer))
    in
    E.merge o6 c4
end

(* ------------------------------------------------------------------ *)
(* The claims of a returned layout: C201-C205                          *)
(* ------------------------------------------------------------------ *)

let certify_claims ?(cost_code = "C202") ?latency ?(fixed = []) ~tol ~exact
    inst stats ~p ~lambda part ~cost ~objective6 =
  let claims () =
    let structure =
      match Partitioning.validate stats part with
      | Ok () -> []
      | Error msg ->
        [ Diagnostic.error ~code:"C205"
            "returned partitioning fails structural validation: %s" msg ]
    in
    (* One float breakdown serves both value claims and the float side of
       the exact verdicts. *)
    let b = Cost_model.breakdown inst part in
    let cost_f =
      b.Cost_model.read_local +. b.Cost_model.write_local
      +. (p *. b.Cost_model.transfer)
    in
    let work = Array.fold_left Float.max 0. b.Cost_model.site_work in
    let lat =
      match latency with
      | None -> 0.
      | Some pl -> lambda *. Cost_model.latency inst ~pl part
    in
    let obj6_f = (lambda *. cost_f) +. ((1. -. lambda) *. work) +. lat in
    (* A non-finite claim or re-derivation never passes. *)
    let judge indep claimed =
      let threshold = rel tol indep in
      (claimed, threshold, Float.abs (indep -. claimed) <= threshold)
    in
    let ((_, _, obj6_ok) as obj6) = judge obj6_f objective6
    and ((_, _, cost_ok) as c4) = judge cost_f cost in
    let findings =
      structure
      @ (if obj6_ok then []
         else
           [ Diagnostic.error ~code:"C201"
               "claimed objective (6) %g differs from the independent \
                instance evaluation %g (lambda %g, cost %g, max site work \
                %g%s)"
               objective6 obj6_f lambda cost_f work
               (if lat = 0. then ""
                else Printf.sprintf ", latency term %g" lat) ])
      @ (if cost_ok then []
         else
           [ Diagnostic.error ~code:cost_code
               "claimed cost %g differs from the independent breakdown \
                re-derivation %g (read %g + write %g + %g x transfer %g)"
               cost cost_f b.Cost_model.read_local b.Cost_model.write_local p
               b.Cost_model.transfer ])
      @ certify_pins ~fixed part
    in
    (findings, obj6, c4)
  in
  let findings, obj6, c4 = Obs.timed "certify.claims.seconds" claims in
  ( findings,
    if exact then
      Some (Exact.audit inst ~p ~lambda ?latency part ~cost:c4 ~obj6)
    else None )
