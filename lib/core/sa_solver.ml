type options = {
  num_sites : int;
  p : float;
  lambda : float;
  allow_replication : bool;
  use_grouping : bool;
  seed : int;
  move_fraction : float;
  inner_loops : int;
  cooling : float;
  accept_gap : float;
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
    cooling = 0.85;
    accept_gap = 0.05;
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
(* Exact subproblem solvers (replication mode)                         *)
(* ------------------------------------------------------------------ *)

(* Optimal y given x: separable per attribute. *)
let optimize_y_given_x (stats : Stats.t) opts (part : Partitioning.t) =
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  (* coefficient of y_{a,s}: sum of c1 over transactions homed at s, + c2 *)
  let coef = Array.init na (fun a -> Array.make ns stats.Stats.c2.(a)) in
  let forced = Array.init na (fun _ -> Array.make ns false) in
  for t = 0 to nt - 1 do
    let home = part.Partitioning.txn_site.(t) in
    let c1t = Vec.row stats.Stats.c1 t and phi_t = stats.Stats.phi.(t) in
    for a = 0 to na - 1 do
      coef.(a).(home) <- coef.(a).(home) +. c1t.{a};
      if phi_t.(a) then forced.(a).(home) <- true
    done
  done;
  for a = 0 to na - 1 do
    let row = part.Partitioning.placed.(a) in
    Array.fill row 0 ns false;
    let any = ref false in
    for s = 0 to ns - 1 do
      if forced.(a).(s) || coef.(a).(s) < 0. then begin
        row.(s) <- true;
        any := true
      end
    done;
    if not !any then begin
      let best = ref 0 and best_c = ref coef.(a).(0) in
      for s = 1 to ns - 1 do
        if coef.(a).(s) < !best_c then begin
          best := s;
          best_c := coef.(a).(s)
        end
      done;
      row.(!best) <- true
    end
  done

(* Optimal x given y: separable per transaction over feasible sites. *)
let optimize_x_given_y (stats : Stats.t) opts (part : Partitioning.t) =
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  for t = 0 to nt - 1 do
    let c1t = Vec.row stats.Stats.c1 t and phi_t = stats.Stats.phi.(t) in
    let best = ref (-1) and best_c = ref infinity in
    for s = 0 to ns - 1 do
      let feasible = ref true in
      for a = 0 to na - 1 do
        if phi_t.(a) && not part.Partitioning.placed.(a).(s) then feasible := false
      done;
      if !feasible then begin
        let c = ref 0. in
        for a = 0 to na - 1 do
          if part.Partitioning.placed.(a).(s) then c := !c +. c1t.{a}
        done;
        if !c < !best_c then begin
          best := s;
          best_c := !c
        end
      end
    done;
    if !best >= 0 then part.Partitioning.txn_site.(t) <- !best
    (* else: no site hosts the whole read set; keep the current assignment
       and let the repair below restore feasibility *)
  done;
  Partitioning.repair_single_sitedness stats part

(* ------------------------------------------------------------------ *)
(* Neighborhoods (§3)                                                  *)
(* ------------------------------------------------------------------ *)

let count_moves frac n = max 1 (int_of_float (Float.round (frac *. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* Per-solve context: loop-invariant work hoisted out of the move loop *)
(* ------------------------------------------------------------------ *)

(* Hoisted Appendix-A latency evaluator.  [Cost_model.latency] re-walks
   the workload's query lists on every call and the annealer evaluates it
   once per move; precompute the write queries (home transaction,
   frequency, accessed attributes as arrays) once per solve instead. *)
let make_latency_eval (inst : Instance.t) =
  let wl = inst.Instance.workload in
  let acc = ref [] in
  for q = Workload.num_queries wl - 1 downto 0 do
    let query = Workload.query wl q in
    if Workload.is_write query then
      acc :=
        ( Workload.txn_of_query wl q,
          query.Workload.freq,
          Array.of_list query.Workload.attrs )
        :: !acc
  done;
  let wq = Array.of_list !acc in
  fun (part : Partitioning.t) ->
    let ns = part.Partitioning.num_sites in
    let total = ref 0. in
    Array.iter
      (fun (tx, freq, attrs) ->
         let home = part.Partitioning.txn_site.(tx) in
         let remote = ref false in
         Array.iter
           (fun a ->
              if not !remote then begin
                let row = part.Partitioning.placed.(a) in
                for s = 0 to ns - 1 do
                  if row.(s) && s <> home then remote := true
                done
              end)
           attrs;
         if !remote then total := !total +. freq)
      wq;
    !total

type ctx = {
  stats : Stats.t;
  opts : options;
  phi_attrs : int array array;  (* txn  -> attrs with φ(t,a), ascending *)
  phi_txns : int array array;   (* attr -> txns with φ(t,a), ascending *)
  latency : (Instance.t * float) option;  (* reduced instance, pl *)
  extra : Partitioning.t -> float;
      (* λ·pl·latency (Appendix A), hoisted; constant 0 when disabled *)
}

let make_ctx (reduced : Instance.t) (stats : Stats.t) (opts : options) =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let counts_t = Array.make nt 0 and counts_a = Array.make na 0 in
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      if stats.Stats.phi.(t).(a) then begin
        counts_t.(t) <- counts_t.(t) + 1;
        counts_a.(a) <- counts_a.(a) + 1
      end
    done
  done;
  let phi_attrs = Array.init nt (fun t -> Array.make counts_t.(t) 0) in
  let phi_txns = Array.init na (fun a -> Array.make counts_a.(a) 0) in
  Array.fill counts_t 0 nt 0;
  Array.fill counts_a 0 na 0;
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      if stats.Stats.phi.(t).(a) then begin
        phi_attrs.(t).(counts_t.(t)) <- a;
        counts_t.(t) <- counts_t.(t) + 1;
        phi_txns.(a).(counts_a.(a)) <- t;
        counts_a.(a) <- counts_a.(a) + 1
      end
    done
  done;
  let latency = Option.map (fun pl -> (reduced, pl)) opts.latency in
  let extra =
    match opts.latency with
    | None -> fun _ -> 0.
    | Some pl ->
      let lat = make_latency_eval reduced in
      fun part -> opts.lambda *. pl *. lat part
  in
  { stats; opts; phi_attrs; phi_txns; latency; extra }

(* ------------------------------------------------------------------ *)
(* Move engines                                                        *)
(* ------------------------------------------------------------------ *)

(* The annealing loop drives the search through this interface.  The
   engines track the objective through {!Delta_cost} and undo rejected
   moves through its journal instead of restoring snapshots. *)
type engine = {
  init_obj : float;
  propose : [ `Fix_x | `Fix_y ] -> float;
      (** perturb + re-optimize the non-fixed vector; returns the
          candidate objective *)
  accept : unit -> unit;
  reject : unit -> unit;  (** roll the proposal back *)
  snapshot_best : unit -> Partitioning.t;
  epoch_refresh : float -> float;
      (** epoch boundary: resync incremental caches against float drift;
          takes and returns the current objective *)
  delta_evals : unit -> int;  (** primitive delta updates performed *)
}

(* Replication-mode start: random x satisfying (2), then an exact
   y-step. *)
let init_replicated (stats : Stats.t) opts rng =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let part =
    Partitioning.create ~num_sites:opts.num_sites ~num_txns:nt ~num_attrs:na
  in
  for t = 0 to nt - 1 do
    part.Partitioning.txn_site.(t) <- Rng.int rng opts.num_sites
  done;
  optimize_y_given_x stats opts part;
  part

(* Replication-mode delta engine.  On top of {!Delta_cost} it maintains
   the two aggregates the exact sub-steps need, so a full y- or x-step
   costs O(attrs × sites) / O(txns × sites) instead of O(txns × attrs):

     coef.(a).(s)   = c2(a) + Σ_{t at s} c1(t,a)   (y-step coefficient)
     forced.(a).(s) = #{t at s with φ(t,a)}        (single-sitedness)
     score.(t).(s)  = Σ_{a placed at s} c1(t,a)    (x-step cost)
     miss.(t).(s)   = #{a : φ(t,a), not placed at s}  (x feasibility)

   Rejected proposals are rolled back through an engine journal that
   mirrors the {!Delta_cost} one. *)
type rprim =
  | EFlip of int * int * bool  (* attr, site, was-added *)
  | EAssign of int * int * int (* txn, old site, new site *)

let delta_replicated_engine ctx rng part =
  let stats = ctx.stats and opts = ctx.opts in
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  let dc = Delta_cost.create ?latency:ctx.latency stats ~lambda:opts.lambda part in
  let coef = Array.make_matrix na ns 0. in
  let forced = Array.make_matrix na ns 0 in
  let score = Array.make_matrix nt ns 0. in
  let miss = Array.make_matrix nt ns 0 in
  let rebuild_aggregates () =
    for a = 0 to na - 1 do
      Array.fill coef.(a) 0 ns stats.Stats.c2.(a);
      Array.fill forced.(a) 0 ns 0
    done;
    for t = 0 to nt - 1 do
      let home = part.Partitioning.txn_site.(t) in
      let c1t = Vec.row stats.Stats.c1 t in
      for a = 0 to na - 1 do
        coef.(a).(home) <- coef.(a).(home) +. c1t.{a}
      done;
      Array.iter
        (fun a -> forced.(a).(home) <- forced.(a).(home) + 1)
        ctx.phi_attrs.(t)
    done;
    for t = 0 to nt - 1 do
      let c1t = Vec.row stats.Stats.c1 t in
      let nphi = Array.length ctx.phi_attrs.(t) in
      for s = 0 to ns - 1 do
        let sc = ref 0. in
        for a = 0 to na - 1 do
          if part.Partitioning.placed.(a).(s) then sc := !sc +. c1t.{a}
        done;
        score.(t).(s) <- !sc;
        let m = ref nphi in
        Array.iter
          (fun a -> if part.Partitioning.placed.(a).(s) then decr m)
          ctx.phi_attrs.(t);
        miss.(t).(s) <- !m
      done
    done
  in
  rebuild_aggregates ();
  let journal = ref [] in
  let flip a s =
    let added = not part.Partitioning.placed.(a).(s) in
    ignore (Delta_cost.apply_move dc (Delta_cost.Flip (a, s)));
    let sign = if added then 1. else -1. in
    for t = 0 to nt - 1 do
      score.(t).(s) <- score.(t).(s) +. (sign *. stats.Stats.c1.{t, a})
    done;
    let d = if added then -1 else 1 in
    Array.iter (fun t -> miss.(t).(s) <- miss.(t).(s) + d) ctx.phi_txns.(a);
    journal := EFlip (a, s, added) :: !journal
  in
  let assign t s =
    let s_old = part.Partitioning.txn_site.(t) in
    if s_old <> s then begin
      ignore (Delta_cost.apply_move dc (Delta_cost.Assign (t, s)));
      let c1t = Vec.row stats.Stats.c1 t in
      for a = 0 to na - 1 do
        coef.(a).(s_old) <- coef.(a).(s_old) -. c1t.{a};
        coef.(a).(s) <- coef.(a).(s) +. c1t.{a}
      done;
      Array.iter
        (fun a ->
           forced.(a).(s_old) <- forced.(a).(s_old) - 1;
           forced.(a).(s) <- forced.(a).(s) + 1)
        ctx.phi_attrs.(t);
      journal := EAssign (t, s_old, s) :: !journal
    end
  in
  let reject () =
    (* head of the journal = last primitive applied: popping in list
       order keeps the engine aggregates and the Delta_cost journal in
       lockstep *)
    List.iter
      (function
        | EFlip (a, s, added) ->
          Delta_cost.undo_move dc;
          let sign = if added then -1. else 1. in
          for t = 0 to nt - 1 do
            score.(t).(s) <- score.(t).(s) +. (sign *. stats.Stats.c1.{t, a})
          done;
          let d = if added then 1 else -1 in
          Array.iter
            (fun t -> miss.(t).(s) <- miss.(t).(s) + d)
            ctx.phi_txns.(a)
        | EAssign (t, s_old, s_new) ->
          Delta_cost.undo_move dc;
          let c1t = Vec.row stats.Stats.c1 t in
          for a = 0 to na - 1 do
            coef.(a).(s_new) <- coef.(a).(s_new) -. c1t.{a};
            coef.(a).(s_old) <- coef.(a).(s_old) +. c1t.{a}
          done;
          Array.iter
            (fun a ->
               forced.(a).(s_new) <- forced.(a).(s_new) - 1;
               forced.(a).(s_old) <- forced.(a).(s_old) + 1)
            ctx.phi_attrs.(t))
      !journal;
    journal := []
  in
  let ystep () =
    (* y optimal given x, from the maintained coefficients: same
       placement rule as [optimize_y_given_x], applied as diffs *)
    for a = 0 to na - 1 do
      let row = part.Partitioning.placed.(a) in
      let cf = coef.(a) and fc = forced.(a) in
      let any = ref false in
      for s = 0 to ns - 1 do
        if fc.(s) > 0 || cf.(s) < 0. then any := true
      done;
      if !any then
        for s = 0 to ns - 1 do
          let want = fc.(s) > 0 || cf.(s) < 0. in
          if want <> row.(s) then flip a s
        done
      else begin
        let best = ref 0 and best_c = ref cf.(0) in
        for s = 1 to ns - 1 do
          if cf.(s) < !best_c then begin
            best := s;
            best_c := cf.(s)
          end
        done;
        for s = 0 to ns - 1 do
          if (s = !best) <> row.(s) then flip a s
        done
      end
    done
  in
  let xstep () =
    (* x optimal given y from score/miss, then the φ-repair for
       transactions left on an infeasible site — the same fixpoint as
       [optimize_x_given_y] + [repair_single_sitedness] *)
    for t = 0 to nt - 1 do
      let best = ref (-1) and best_c = ref infinity in
      for s = 0 to ns - 1 do
        if miss.(t).(s) = 0 && score.(t).(s) < !best_c then begin
          best := s;
          best_c := score.(t).(s)
        end
      done;
      if !best >= 0 then assign t !best
    done;
    for t = 0 to nt - 1 do
      let home = part.Partitioning.txn_site.(t) in
      if miss.(t).(home) > 0 then
        Array.iter
          (fun a -> if not part.Partitioning.placed.(a).(home) then flip a home)
          ctx.phi_attrs.(t)
    done
  in
  {
    init_obj = Delta_cost.objective dc;
    propose =
      (fun fix ->
         if nt > 0 && ns > 1 then begin
           let k = count_moves opts.move_fraction nt in
           List.iter
             (fun t ->
                let cur = part.Partitioning.txn_site.(t) in
                let s = Rng.int rng (ns - 1) in
                assign t (if s >= cur then s + 1 else s))
             (Rng.sample_distinct rng k nt)
         end;
         if na > 0 && ns > 1 then begin
           let k = count_moves opts.move_fraction na in
           List.iter
             (fun a ->
                let row = part.Partitioning.placed.(a) in
                let absent = ref [] in
                for s = ns - 1 downto 0 do
                  if not row.(s) then absent := s :: !absent
                done;
                match !absent with
                | [] -> ()
                | sites ->
                  flip a (List.nth sites (Rng.int rng (List.length sites))))
             (Rng.sample_distinct rng k na)
         end;
         (match fix with
          | `Fix_x -> Obs.timed "sa.ystep.seconds" ystep
          | `Fix_y -> Obs.timed "sa.xstep.seconds" xstep);
         Delta_cost.objective dc);
    accept = (fun () -> journal := []);
    reject;
    snapshot_best = (fun () -> Partitioning.copy part);
    epoch_refresh =
      (fun _ ->
         rebuild_aggregates ();
         Delta_cost.resync dc;
         Delta_cost.objective dc);
    delta_evals = (fun () -> Delta_cost.moves_applied dc);
  }

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

(* Full rebuild of the disjoint layout from component sites: attributes
   read by someone follow their component; never-read attributes are
   placed greedily given x. *)
let disjoint_apply (stats : Stats.t) opts comp_of comp_site
    (part : Partitioning.t) =
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  for t = 0 to nt - 1 do
    part.Partitioning.txn_site.(t) <- comp_site.(comp_of.(t))
  done;
  let read = Array.make na false in
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      if stats.Stats.phi.(t).(a) then read.(a) <- true
    done
  done;
  (* greedy single placement for every attribute *)
  let coef = Array.init na (fun a -> Array.make opts.num_sites stats.Stats.c2.(a)) in
  for t = 0 to nt - 1 do
    let home = part.Partitioning.txn_site.(t) in
    let c1t = Vec.row stats.Stats.c1 t in
    for a = 0 to na - 1 do
      coef.(a).(home) <- coef.(a).(home) +. c1t.{a}
    done
  done;
  for a = 0 to na - 1 do
    let row = part.Partitioning.placed.(a) in
    Array.fill row 0 opts.num_sites false;
    if read.(a) then row.(comp_site.(comp_of.(nt + a))) <- true
    else begin
      let best = ref 0 and best_c = ref coef.(a).(0) in
      for s = 1 to opts.num_sites - 1 do
        if coef.(a).(s) < !best_c then begin
          best := s;
          best_c := coef.(a).(s)
        end
      done;
      row.(!best) <- true
    end
  done

(* Disjoint-mode delta engine: component moves are {!Delta_cost}
   composites; only the greedy coefficient of the never-read attributes
   needs maintaining. *)
type dprim =
  | DComp of int * int * int  (* component, old site, new site *)
  | DNr                       (* one never-read re-placement to undo *)

let delta_disjoint_engine ctx (dctx : disjoint_ctx) rng =
  let stats = ctx.stats and opts = ctx.opts in
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  let comp_site = Array.init dctx.ncomp (fun _ -> Rng.int rng ns) in
  let part =
    Partitioning.create ~num_sites:ns ~num_txns:nt ~num_attrs:na
  in
  disjoint_apply stats opts dctx.comp_of comp_site part;
  let dc =
    Delta_cost.create ?latency:ctx.latency stats ~lambda:opts.lambda part
  in
  let coef = Array.make_matrix na ns 0. in
  let rebuild_coef () =
    for a = 0 to na - 1 do
      Array.fill coef.(a) 0 ns stats.Stats.c2.(a)
    done;
    for t = 0 to nt - 1 do
      let home = part.Partitioning.txn_site.(t) in
      let c1t = Vec.row stats.Stats.c1 t in
      for a = 0 to na - 1 do
        coef.(a).(home) <- coef.(a).(home) +. c1t.{a}
      done
    done
  in
  rebuild_coef ();
  let journal = ref [] in
  let shift_coef txns from_s to_s =
    Array.iter
      (fun t ->
         let c1t = Vec.row stats.Stats.c1 t in
         for a = 0 to na - 1 do
           coef.(a).(from_s) <- coef.(a).(from_s) -. c1t.{a};
           coef.(a).(to_s) <- coef.(a).(to_s) +. c1t.{a}
         done)
      txns
  in
  let move_comp c s =
    let s_old = comp_site.(c) in
    comp_site.(c) <- s;
    ignore
      (Delta_cost.apply_move dc
         (Delta_cost.Move_component (dctx.comp_txns.(c), dctx.comp_attrs.(c), s)));
    shift_coef dctx.comp_txns.(c) s_old s;
    journal := DComp (c, s_old, s) :: !journal
  in
  {
    init_obj = Delta_cost.objective dc;
    propose =
      (fun _fix ->
         if ns > 1 then begin
           let k = count_moves opts.move_fraction dctx.ncomp in
           List.iter
             (fun c ->
                let cur = comp_site.(c) in
                let s = Rng.int rng (ns - 1) in
                move_comp c (if s >= cur then s + 1 else s))
             (Rng.sample_distinct rng k dctx.ncomp)
         end;
         (* greedy re-placement of the never-read attributes, as in
            [disjoint_apply] *)
         Array.iter
           (fun a ->
              let cf = coef.(a) in
              let best = ref 0 and best_c = ref cf.(0) in
              for s = 1 to ns - 1 do
                if cf.(s) < !best_c then begin
                  best := s;
                  best_c := cf.(s)
                end
              done;
              if not part.Partitioning.placed.(a).(!best) then begin
                ignore
                  (Delta_cost.apply_move dc
                     (Delta_cost.Move_component ([||], [| a |], !best)));
                journal := DNr :: !journal
              end)
           dctx.never_read;
         Delta_cost.objective dc);
    accept = (fun () -> journal := []);
    reject =
      (fun () ->
         List.iter
           (function
             | DNr -> Delta_cost.undo_move dc
             | DComp (c, s_old, s_new) ->
               Delta_cost.undo_move dc;
               comp_site.(c) <- s_old;
               shift_coef dctx.comp_txns.(c) s_new s_old)
           !journal;
         journal := []);
    snapshot_best = (fun () -> Partitioning.copy part);
    epoch_refresh =
      (fun _ ->
         rebuild_coef ();
         Delta_cost.resync dc;
         Delta_cost.objective dc);
    delta_evals = (fun () -> Delta_cost.moves_applied dc);
  }

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
let anneal ?epoch_hook (stats : Stats.t) opts rng (engine : engine) =
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
  let current_obj = ref engine.init_obj in
  let best = ref (engine.snapshot_best ()) in
  let best_obj = ref !current_obj in
  (* §5.1: accept a accept_gap-worse solution with probability 1/2 in the
     first iterations. *)
  let tau0 =
    let c = Float.max !best_obj 1e-9 in
    -.(opts.accept_gap *. c) /. Float.log 0.5
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
         let cand_obj = engine.propose !fix in
         let delta = cand_obj -. !current_obj in
         if delta <= 0. || Rng.float rng < Float.exp (-.delta /. !tau) then begin
           engine.accept ();
           incr accepted;
           current_obj := cand_obj;
           if cand_obj < !best_obj then begin
             best_obj := cand_obj;
             best := engine.snapshot_best ();
             if Obs.enabled () then
               Obs.point "sa.best"
                 ~attrs:
                   [
                     ("obj", Obs.Float !best_obj);
                     ("move", Obs.Int !iterations);
                   ]
           end
         end
         else engine.reject ();
         fix := (match !fix with `Fix_x -> `Fix_y | `Fix_y -> `Fix_x)
       done;
       tau := opts.cooling *. !tau;
       current_obj := engine.epoch_refresh !current_obj;
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
    let de = engine.delta_evals () in
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
  optimize_y_given_x stats opts part;
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
     scaled by lambda like every other cost term (matching the QP).  The
     evaluator and the φ adjacency are built once and shared by every
     chain. *)
  let ctx = make_ctx reduced stats options in
  let extra = ctx.extra in
  let dctx =
    if options.allow_replication then None else Some (make_disjoint_ctx stats)
  in
  let run_chain ?epoch_hook rng =
    let engine =
      if options.allow_replication then begin
        let part = init_replicated stats options rng in
        delta_replicated_engine ctx rng part
      end
      else delta_disjoint_engine ctx (Option.get dctx) rng
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
      let eval part =
        Cost_model.objective stats ~lambda:options.lambda part +. extra part
      in
      let epoch_hook best_obj best =
        publish best_obj best;
        match Atomic.get cell with
        | gobj, Some gpart when gobj < best_obj ->
          if options.allow_replication then begin
            (* Side polish on a private copy; publish any improvement. *)
            let c = Partitioning.copy gpart in
            optimize_y_given_x stats options c;
            optimize_x_given_y stats options c;
            let cobj = eval c in
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
  let best, _obj6 =
    let collapsed = collapsed_candidate stats options 0 in
    let cobj =
      Cost_model.objective stats ~lambda:options.lambda collapsed
      +. extra collapsed
    in
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
        let fresh =
          Cost_model.objective stats ~lambda:options.lambda best +. extra best
        in
        if Float.abs (fresh -. _obj6) > 1e-6 *. (1. +. Float.abs fresh) then
          [ Vpart_analysis.Diagnostic.error ~code:"C203"
              "annealer's tracked best objective %g differs from a fresh \
               re-evaluation %g of the returned layout"
              _obj6 fresh ]
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
