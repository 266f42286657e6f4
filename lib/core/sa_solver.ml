type options = {
  num_sites : int;
  p : float;
  lambda : float;
  allow_replication : bool;
  use_grouping : bool;
  seed : int;
  move_fraction : float;
  inner_loops : int;
  freeze_ratio : float;
  max_outer : int;
  time_limit : float option;
  latency : float option;
  certify : bool;
  certify_exact : bool;
  certify_tol : float option;
  restarts : int;
  jobs : int;
}

let default_options =
  {
    num_sites = 2;
    p = 8.;
    lambda = 0.1;
    allow_replication = true;
    use_grouping = true;
    seed = 1;
    move_fraction = 0.10;
    inner_loops = 40;
    freeze_ratio = 1e-3;
    max_outer = 400;
    time_limit = None;
    latency = None;
    certify = false;
    certify_exact = false;
    certify_tol = None;
    restarts = 1;
    jobs = 1;
  }

(* ρ of Algorithm 1, and §5.1's initial-temperature gap: the first
   epochs accept a [accept_gap]-worse solution with probability 1/2. *)
let cooling = 0.85
let accept_gap = 0.05

type search_stats = {
  moves : int;
  accepted_moves : int;
  rejected_moves : int;
  epochs : int;
  initial_temperature : float;
  final_temperature : float;
}

type result = {
  partitioning : Partitioning.t;
  cost : float;
  objective6 : float;
  elapsed : float;
  iterations : int;
  accepted : int;
  outer_rounds : int;
  search : search_stats;
  chains : search_stats array;
  certificate : Vpart_analysis.Diagnostic.t list option;
  exact : Vpart_certify.Certify.Exact.report option;
}

(* ------------------------------------------------------------------ *)
(* Exact sub-steps (§3), on the evaluator's site aggregates            *)
(* ------------------------------------------------------------------ *)

(* Optimal y given x, separable per attribute: place [a] wherever
   single-sitedness forces it or its coefficient is negative, otherwise
   on its cheapest single site; applied as flips of the difference. *)
let ystep dc =
  let part = Delta_cost.partitioning dc in
  let coef = Delta_cost.coef dc and forced = Delta_cost.forced dc in
  let ns = part.Partitioning.num_sites in
  for a = 0 to Array.length part.Partitioning.placed - 1 do
    let row = part.Partitioning.placed.(a) in
    let any = ref false in
    for s = 0 to ns - 1 do
      if forced.(s).(a) > 0 || coef.(s).(a) < 0. then any := true
    done;
    if !any then
      for s = 0 to ns - 1 do
        let want = forced.(s).(a) > 0 || coef.(s).(a) < 0. in
        if want <> row.(s) then Delta_cost.flip dc a s
      done
    else begin
      let best = ref 0 and best_c = ref coef.(0).(a) in
      for s = 1 to ns - 1 do
        if coef.(s).(a) < !best_c then begin
          best := s;
          best_c := coef.(s).(a)
        end
      done;
      for s = 0 to ns - 1 do
        if (s = !best) <> row.(s) then Delta_cost.flip dc a s
      done
    end
  done

(* Optimal x given y, separable per transaction: the cheapest site that
   hosts the transaction's whole read set (a transaction no site hosts
   keeps its home); then every transaction's read set is replicated to
   its home, restoring single-sitedness. *)
let xstep dc =
  let part = Delta_cost.partitioning dc in
  let score = Delta_cost.score dc and miss = Delta_cost.miss dc in
  let ns = part.Partitioning.num_sites
  and txn_site = part.Partitioning.txn_site in
  for t = 0 to Array.length txn_site - 1 do
    let best = ref (-1) and best_c = ref infinity in
    for s = 0 to ns - 1 do
      if miss.(s).(t) = 0 && score.(s).(t) < !best_c then begin
        best := s;
        best_c := score.(s).(t)
      end
    done;
    if !best >= 0 && !best <> txn_site.(t) then Delta_cost.assign dc t !best
  done;
  let reads = Delta_cost.reads dc in
  for t = 0 to Array.length txn_site - 1 do
    let home = txn_site.(t) in
    if miss.(home).(t) > 0 then
      Array.iter
        (fun a ->
           if not part.Partitioning.placed.(a).(home) then
             Delta_cost.flip dc a home)
        reads.(t)
  done

(* ------------------------------------------------------------------ *)
(* Neighborhoods (§3)                                                  *)
(* ------------------------------------------------------------------ *)

let count_moves frac n = max 1 (int_of_float (Float.round (frac *. float_of_int n)))

(* The annealing loop drives the search through this interface: a
   proposal perturbs the layout and re-optimizes through the moves of
   {!Delta_cost}; the loop reads the evaluator's objective and undoes a
   rejected proposal there.  Both modes are proposal policies over that
   one state. *)
type engine = {
  dc : Delta_cost.t;
  propose : [ `Fix_x | `Fix_y ] -> unit;
}

(* Replication-mode start: random x satisfying (2), then an exact
   y-step; [resync] leaves every cache as a fresh evaluator of the
   start layout would hold it. *)
let replicated_engine (stats : Stats.t) opts latency rng =
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  let part = Partitioning.create ~num_sites:ns ~num_txns:nt ~num_attrs:na in
  for t = 0 to nt - 1 do
    part.Partitioning.txn_site.(t) <- Rng.int rng ns
  done;
  let dc = Delta_cost.create ?latency stats ~lambda:opts.lambda part in
  ystep dc;
  Delta_cost.resync dc;
  Delta_cost.commit dc;
  let txn_draw = Array.make nt 0 and attr_draw = Array.make na 0 in
  let ystep () = ystep dc and xstep () = xstep dc in
  let propose fix =
    if nt > 0 && ns > 1 then begin
      let k = count_moves opts.move_fraction nt in
      for i = 0 to Rng.sample_distinct_into rng k txn_draw - 1 do
        let t = txn_draw.(i) in
        let cur = part.Partitioning.txn_site.(t) in
        let s = Rng.int rng (ns - 1) in
        Delta_cost.assign dc t (if s >= cur then s + 1 else s)
      done
    end;
    if na > 0 && ns > 1 then begin
      let k = count_moves opts.move_fraction na in
      for i = 0 to Rng.sample_distinct_into rng k attr_draw - 1 do
        let a = attr_draw.(i) in
        (* a uniform draw among the sites not holding [a], in ascending
           order *)
        let row = part.Partitioning.placed.(a) in
        let absent = ref 0 in
        for s = 0 to ns - 1 do
          if not row.(s) then incr absent
        done;
        if !absent > 0 then begin
          let r = ref (Rng.int rng !absent) and s = ref 0 in
          while row.(!s) || !r > 0 do
            if not row.(!s) then decr r;
            incr s
          done;
          Delta_cost.flip dc a !s
        end
      done
    end;
    match fix with
    | `Fix_x -> Obs.timed "sa.ystep.seconds" ystep
    | `Fix_y -> Obs.timed "sa.xstep.seconds" xstep
  in
  { dc; propose }

(* ------------------------------------------------------------------ *)
(* Disjoint mode                                                       *)
(* ------------------------------------------------------------------ *)

(* Connected components of the transaction / read-attribute graph: in a
   disjoint partitioning, single-sitedness forces each component onto one
   site. *)
let components (stats : Stats.t) =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let parent = Array.init (nt + na) (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      if stats.Stats.phi.(t).(a) then union t (nt + a)
    done
  done;
  let comp_ids = Hashtbl.create 16 in
  let comp_of = Array.make (nt + na) (-1) in
  let n = ref 0 in
  for i = 0 to nt + na - 1 do
    let r = find i in
    let c =
      match Hashtbl.find_opt comp_ids r with
      | Some c -> c
      | None ->
        let c = !n in
        incr n;
        Hashtbl.add comp_ids r c;
        c
    in
    comp_of.(i) <- c
  done;
  (!n, comp_of)

type disjoint_ctx = {
  ncomp : int;
  comp_of : int array;
  comp_txns : int array array;   (* component -> its transactions *)
  comp_attrs : int array array;  (* component -> its read attributes *)
  never_read : int array;        (* attrs no transaction φ-reads *)
}

let make_disjoint_ctx (stats : Stats.t) =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let ncomp, comp_of = components stats in
  let read = Array.make na false in
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      if stats.Stats.phi.(t).(a) then read.(a) <- true
    done
  done;
  let tcount = Array.make ncomp 0 and acount = Array.make ncomp 0 in
  for t = 0 to nt - 1 do
    tcount.(comp_of.(t)) <- tcount.(comp_of.(t)) + 1
  done;
  for a = 0 to na - 1 do
    if read.(a) then
      acount.(comp_of.(nt + a)) <- acount.(comp_of.(nt + a)) + 1
  done;
  let comp_txns = Array.init ncomp (fun c -> Array.make tcount.(c) 0) in
  let comp_attrs = Array.init ncomp (fun c -> Array.make acount.(c) 0) in
  Array.fill tcount 0 ncomp 0;
  Array.fill acount 0 ncomp 0;
  for t = 0 to nt - 1 do
    let c = comp_of.(t) in
    comp_txns.(c).(tcount.(c)) <- t;
    tcount.(c) <- tcount.(c) + 1
  done;
  let nr = ref [] in
  for a = na - 1 downto 0 do
    if read.(a) then begin
      let c = comp_of.(nt + a) in
      comp_attrs.(c).(acount.(c)) <- a;
      acount.(c) <- acount.(c) + 1
    end
    else nr := a :: !nr
  done;
  (* the fill above ran from high to low attr ids: restore ascending *)
  Array.iter (fun row -> Array.sort compare row) comp_attrs;
  { ncomp; comp_of; comp_txns; comp_attrs; never_read = Array.of_list !nr }

(* Greedy single placement of the never-read attributes given x: each on
   its cheapest site by [coef]. *)
let place_never_read dc never_read =
  let placed = (Delta_cost.partitioning dc).Partitioning.placed
  and coef = Delta_cost.coef dc in
  let ns = Array.length coef in
  Array.iter
    (fun a ->
       let best = ref 0 and best_c = ref coef.(0).(a) in
       for s = 1 to ns - 1 do
         if coef.(s).(a) < !best_c then begin
           best := s;
           best_c := coef.(s).(a)
         end
       done;
       if not placed.(a).(!best) then
         Delta_cost.move_component dc [||] [| a |] !best)
    never_read

(* Disjoint-mode engine: components start on random sites, with their
   read attributes, and the never-read attributes are placed greedily;
   a proposal moves whole components and re-places the never-read
   attributes.  A component's site is its first transaction's home; a
   component without transactions (a never-read attribute) has nothing
   to move. *)
let disjoint_engine (stats : Stats.t) opts latency (dctx : disjoint_ctx) rng =
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  let comp_site = Array.init dctx.ncomp (fun _ -> Rng.int rng ns) in
  let part = Partitioning.create ~num_sites:ns ~num_txns:nt ~num_attrs:na in
  for t = 0 to nt - 1 do
    part.Partitioning.txn_site.(t) <- comp_site.(dctx.comp_of.(t))
  done;
  Array.iteri
    (fun c attrs ->
       Array.iter (fun a -> part.Partitioning.placed.(a).(comp_site.(c)) <- true)
         attrs)
    dctx.comp_attrs;
  let dc = Delta_cost.create ?latency stats ~lambda:opts.lambda part in
  place_never_read dc dctx.never_read;
  Delta_cost.resync dc;
  Delta_cost.commit dc;
  let comp_draw = Array.make dctx.ncomp 0 in
  let propose _fix =
    if ns > 1 then begin
      let k = count_moves opts.move_fraction dctx.ncomp in
      for i = 0 to Rng.sample_distinct_into rng k comp_draw - 1 do
        let c = comp_draw.(i) in
        let txns = dctx.comp_txns.(c) in
        let cur =
          if Array.length txns = 0 then 0
          else part.Partitioning.txn_site.(txns.(0))
        in
        let s = Rng.int rng (ns - 1) in
        Delta_cost.move_component dc txns dctx.comp_attrs.(c)
          (if s >= cur then s + 1 else s)
      done
    end;
    place_never_read dc dctx.never_read
  in
  { dc; propose }

(* ------------------------------------------------------------------ *)
(* Annealing loop shared by both modes                                 *)
(* ------------------------------------------------------------------ *)

(* [epoch_hook best_obj best] runs at every epoch boundary of a
   portfolio chain: it publishes the chain's best to the other domains
   and may return a strictly better (objective, partitioning) for this
   chain to adopt.  The hook must not touch the chain's annealing state
   (engine/rng/temperature), so the chain's own trajectory — and its
   [search_stats] — stay exactly those of a sequential run with the same
   seed; adoption only ever lowers the reported best.  [best] is never
   mutated in place by the annealer (it is replaced by fresh snapshots),
   so the hook may share it across domains without copying. *)
let anneal ?epoch_hook (stats : Stats.t) opts rng { dc; propose } =
  Obs.with_span "sa.anneal"
    ~attrs:
      [
        ("txns", Obs.Int stats.Stats.num_txns);
        ("attrs", Obs.Int stats.Stats.num_attrs);
      ]
  @@ fun () ->
  let start = Obs.Clock.now () in
  let deadline = Option.map (fun tl -> start +. tl) opts.time_limit in
  let out_of_time () =
    match deadline with None -> false | Some d -> Obs.Clock.now () > d
  in
  let part = Delta_cost.partitioning dc in
  let current_obj = ref (Delta_cost.objective dc) in
  let best = ref (Partitioning.copy part) in
  let best_obj = ref !current_obj in
  let tau0 =
    let c = Float.max !best_obj 1e-9 in
    -.(accept_gap *. c) /. Float.log 0.5
  in
  let tau = ref tau0 in
  let iterations = ref 0 and accepted = ref 0 and outer = ref 0 in
  let fix = ref `Fix_x in
  (try
     while
       !tau > opts.freeze_ratio *. tau0
       && !outer < opts.max_outer
       && not (out_of_time ())
     do
       incr outer;
       let epoch_start_accepted = !accepted in
       for _ = 1 to opts.inner_loops do
         if out_of_time () then raise Exit;
         incr iterations;
         propose !fix;
         let cand_obj = Delta_cost.objective dc in
         let delta = cand_obj -. !current_obj in
         if delta <= 0. || Rng.float rng < Float.exp (-.delta /. !tau) then begin
           Delta_cost.commit dc;
           incr accepted;
           current_obj := cand_obj;
           if cand_obj < !best_obj then begin
             best_obj := cand_obj;
             best := Partitioning.copy part;
             if Obs.enabled () then
               Obs.point "sa.best"
                 ~attrs:
                   [
                     ("obj", Obs.Float !best_obj);
                     ("move", Obs.Int !iterations);
                   ]
           end
         end
         else
           (* the last commit left only this proposal to undo *)
           Delta_cost.undo_to dc 0;
         fix := (match !fix with `Fix_x -> `Fix_y | `Fix_y -> `Fix_x)
       done;
       tau := cooling *. !tau;
       (* drop the float drift of the epoch's updates *)
       Delta_cost.resync dc;
       current_obj := Delta_cost.objective dc;
       (match epoch_hook with
        | None -> ()
        | Some hook -> (
          match hook !best_obj !best with
          | Some (obj, part) when obj < !best_obj ->
            best_obj := obj;
            best := part;
            if Obs.enabled () then
              Obs.point "sa.exchange"
                ~attrs:[ ("obj", Obs.Float obj); ("epoch", Obs.Int !outer) ]
          | _ -> ()));
       if Obs.enabled () then begin
         Obs.gauge "sa.temperature" !tau;
         Obs.point "sa.epoch"
           ~attrs:
             [
               ("epoch", Obs.Int !outer);
               ("temperature", Obs.Float !tau);
               ( "accept_rate",
                 Obs.Float
                   (float_of_int (!accepted - epoch_start_accepted)
                    /. float_of_int opts.inner_loops) );
               ("best_obj", Obs.Float !best_obj);
               ("current_obj", Obs.Float !current_obj);
             ]
       end
     done
   with Exit -> ());
  if Obs.enabled () then begin
    Obs.count "sa.moves" (float_of_int !iterations);
    Obs.count "sa.accepted" (float_of_int !accepted);
    Obs.count "sa.rejected" (float_of_int (!iterations - !accepted));
    let de = Delta_cost.moves_applied dc in
    if de > 0 then Obs.count "sa.delta_evals" (float_of_int de)
  end;
  let search =
    {
      moves = !iterations;
      accepted_moves = !accepted;
      rejected_moves = !iterations - !accepted;
      epochs = !outer;
      initial_temperature = tau0;
      final_temperature = !tau;
    }
  in
  (!best, !best_obj, search, Obs.Clock.now () -. start)

(* The trivial "everything co-located on one site" candidate: all
   transactions on site s with y optimized.  The annealer's random start
   plus small moves can miss this basin entirely on instances where
   partitioning does not pay (the paper's rndB...x100 rows equal the
   |S| = 1 column exactly), so the returned solution is never worse than
   the best collapsed layout. *)
let collapsed_candidate (stats : Stats.t) opts site =
  let part =
    Partitioning.create ~num_sites:opts.num_sites ~num_txns:stats.Stats.num_txns
      ~num_attrs:stats.Stats.num_attrs
  in
  Array.fill part.Partitioning.txn_site 0 stats.Stats.num_txns site;
  ystep (Delta_cost.create stats ~lambda:opts.lambda part);
  part

let solve ?(options = default_options) (inst : Instance.t) =
  Obs.with_span "sa.solve" @@ fun () ->
  let grouping =
    if options.use_grouping then Grouping.compute inst else Grouping.identity inst
  in
  let reduced = grouping.Grouping.reduced in
  let stats = Stats.compute reduced ~p:options.p in
  let full_stats = Stats.compute inst ~p:options.p in
  (* Appendix A: fold the latency estimate into the annealed objective,
     scaled by lambda like every other cost term (matching the QP). *)
  let latency = Option.map (fun pl -> (reduced, pl)) options.latency in
  let objective part =
    Cost_model.objective ?latency stats ~lambda:options.lambda part
  in
  let dctx =
    if options.allow_replication then None else Some (make_disjoint_ctx stats)
  in
  let run_chain ?epoch_hook rng =
    let engine =
      match dctx with
      | None -> replicated_engine stats options latency rng
      | Some dctx -> disjoint_engine stats options latency dctx rng
    in
    anneal ?epoch_hook stats options rng engine
  in
  let restarts = max 1 options.restarts in
  let best, best_obj6, search, chains, elapsed =
    if restarts = 1 then begin
      (* Single chain: the sequential code path (plain seed, no pool, no
         exchange). *)
      let rng = Rng.create options.seed in
      let best, obj, search, elapsed = run_chain rng in
      (best, obj, search, [| search |], elapsed)
    end
    else begin
      (* Portfolio: [restarts] independent chains with split seeds run
         across [jobs] domains.  Chains exchange their bests at epoch
         boundaries through a monotone atomic cell; in replication mode
         the receiving chain additionally polishes the adopted layout
         with one exact y-step + x-step sweep (outside its own
         trajectory).  The portfolio best is therefore never worse than
         the best of the same chains run sequentially. *)
      let t_start = Obs.Clock.now () in
      (* Chain 0 anneals the exact stream a [restarts = 1] run would use,
         so the portfolio is provably never worse than the sequential run
         on the same seed (its reported best can only be replaced by a
         strictly better exchanged layout); the extra chains explore
         decorrelated split streams. *)
      let rngs =
        let splits = Rng.split (Rng.create options.seed) (restarts - 1) in
        Array.init restarts (fun i ->
            if i = 0 then Rng.create options.seed else splits.(i - 1))
      in
      let cell :
            (float * Partitioning.t option) Atomic.t =
        Atomic.make (infinity, None)
      in
      let rec publish obj part =
        let cur = Atomic.get cell in
        if obj < fst cur then
          if not (Atomic.compare_and_set cell cur (obj, Some part)) then
            publish obj part
      in
      let epoch_hook best_obj best =
        publish best_obj best;
        match Atomic.get cell with
        | gobj, Some gpart when gobj < best_obj ->
          if options.allow_replication then begin
            (* Side polish on a private copy; publish any improvement. *)
            let c = Partitioning.copy gpart in
            let dc = Delta_cost.create stats ~lambda:options.lambda c in
            ystep dc;
            Delta_cost.resync dc;
            xstep dc;
            let cobj = objective c in
            if cobj < gobj then begin
              publish cobj c;
              Some (cobj, c)
            end
            else Some (gobj, gpart)
          end
          else Some (gobj, gpart)
        | _ -> None
      in
      let jobs = max 1 (min options.jobs restarts) in
      let results =
        Par.with_pool ~jobs (fun pool ->
            Par.map_array pool (fun rng -> run_chain ~epoch_hook rng) rngs)
      in
      let best = ref None and best_obj = ref infinity in
      Array.iter
        (fun (b, obj, _, _) ->
           if obj < !best_obj then begin
             best_obj := obj;
             best := Some b
           end)
        results;
      (* The cell may hold a polished layout better than every chain's
         own best. *)
      (match Atomic.get cell with
       | gobj, Some gpart when gobj < !best_obj ->
         best_obj := gobj;
         best := Some gpart
       | _ -> ());
      let chains = Array.map (fun (_, _, s, _) -> s) results in
      let search =
        Array.fold_left
          (fun acc (c : search_stats) ->
             {
               moves = acc.moves + c.moves;
               accepted_moves = acc.accepted_moves + c.accepted_moves;
               rejected_moves = acc.rejected_moves + c.rejected_moves;
               epochs = max acc.epochs c.epochs;
               initial_temperature = acc.initial_temperature;
               final_temperature =
                 Float.min acc.final_temperature c.final_temperature;
             })
          { chains.(0) with moves = 0; accepted_moves = 0; rejected_moves = 0 }
          chains
      in
      let best =
        match !best with
        | Some b -> b
        | None -> invalid_arg "Sa_solver: empty portfolio"
      in
      (best, !best_obj, search, chains, Obs.Clock.now () -. t_start)
    end
  in
  let best, tracked_obj6 =
    let collapsed = collapsed_candidate stats options 0 in
    let cobj = objective collapsed in
    if cobj < best_obj6 then (collapsed, cobj) else (best, best_obj6)
  in
  (match Partitioning.validate stats best with
   | Ok () -> ()
   | Error e -> invalid_arg ("Sa_solver: internal invariant broken: " ^ e));
  let partitioning = Grouping.expand grouping best in
  let cost = Cost_model.cost full_stats partitioning in
  let objective6 =
    let latency = Option.map (fun pl -> (inst, pl)) options.latency in
    Cost_model.objective ?latency full_stats ~lambda:options.lambda
      partitioning
  in
  let dtol = Option.value options.certify_tol ~default:1e-6 in
  let certificate =
    if not options.certify then None
    else
      (* The annealer tracks its objective incrementally; certify both the
         internal best (against a from-scratch reduced-space evaluation)
         and the reported cost/objective (against the instance-level
         breakdown, which never touches the Stats coefficients). *)
      let internal =
        let fresh = objective best in
        if Float.abs (fresh -. tracked_obj6) > 1e-6 *. (1. +. Float.abs fresh)
        then
          [ Vpart_analysis.Diagnostic.error ~code:"C203"
              "annealer's tracked best objective %g differs from a fresh \
               re-evaluation %g of the returned layout"
              tracked_obj6 fresh ]
        else []
      in
      Some
        (Vpart_analysis.Diagnostic.sort
           (internal
            @ Solution_certify.certify_partitioning full_stats partitioning
            @ Solution_certify.certify_cost ~tol:dtol ~code:"C203" inst
                ~p:options.p partitioning ~claimed:cost
            @ Solution_certify.certify_objective6 ~tol:dtol inst ~p:options.p
                ~lambda:options.lambda ?latency:options.latency partitioning
                ~claimed:objective6))
  in
  let exact =
    if not options.certify_exact then None
    else
      (* The annealer emits no MIP-level artifacts; the exact audit covers
         the domain-level claims (cost and objective-(6) agreement) in
         rational arithmetic. *)
      Some
        (Solution_certify.Exact.audit ~tol:dtol
           ~objective6:
             { Solution_certify.Exact.lambda = options.lambda;
               latency = options.latency; claimed = objective6 }
           inst ~p:options.p partitioning ~cost)
  in
  {
    partitioning;
    cost;
    objective6;
    elapsed;
    iterations = search.moves;
    accepted = search.accepted_moves;
    outer_rounds = search.epochs;
    search;
    chains;
    certificate;
    exact;
  }
