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

type ctx = {
  stats : Stats.t;
  opts : options;
  phi_attrs : int array array;  (* txn  -> attrs with φ(t,a), ascending *)
  phi_txns : int array array;   (* attr -> txns with φ(t,a), ascending *)
  latency : (Instance.t * float) option;  (* reduced instance, pl *)
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
  { stats; opts; phi_attrs; phi_txns; latency }

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

(* The engines' undo journals: growable int stacks, emptied on every
   accept and reject, so a proposal allocates nothing once they have
   grown to its size. *)
type journal = { mutable items : int array; mutable top : int }

let empty_journal () = { items = Array.make 64 0; top = 0 }

let push j x =
  if j.top = Array.length j.items then begin
    let bigger = Array.make (2 * j.top) 0 in
    Array.blit j.items 0 bigger 0 j.top;
    j.items <- bigger
  end;
  j.items.(j.top) <- x;
  j.top <- j.top + 1

(* Epoch-boundary audit of an engine's float aggregates: the
   incrementally maintained rows must agree with the fresh rebuild up to
   the rounding of one epoch's updates.  Every partial sum is bounded by
   [scale] = Σ|c1| + Σ|c2|, so the tolerance cannot trip on rounding; a
   mismatch means a move was applied or undone without its aggregate
   update, which would otherwise only steer the search wrong until the
   rebuild silently repaired it. *)
let coef_scale (stats : Stats.t) (c1_rows : Vec.sparse) =
  let s = ref 0. in
  Array.iter (fun c -> s := !s +. Float.abs c) stats.Stats.c2;
  let c1 = c1_rows.Vec.vals.(0) in
  for k = 0 to Vec.length c1 - 1 do
    s := !s +. Float.abs c1.{k}
  done;
  !s

let audit name ~scale (kept : float array array) (fresh : float array array) =
  Array.iteri
    (fun i row ->
       Array.iteri
         (fun j v ->
            if Float.abs (v -. fresh.(i).(j)) > 1e-9 *. (1. +. scale) then
              invalid_arg
                (Printf.sprintf
                   "Sa_solver: internal invariant broken: %s.(%d).(%d) is %g \
                    incrementally, %g rebuilt"
                   name i j v fresh.(i).(j)))
         row)
    kept

let copy_rows src dst =
  Array.iteri (fun i row -> Array.blit row 0 dst.(i) 0 (Array.length row)) src

(* Replication-mode delta engine.  On top of {!Delta_cost} it maintains
   the two aggregates the exact sub-steps need, so a full y- or x-step
   costs O(attrs × sites) / O(txns × sites) instead of O(txns × attrs):

     coef.(s).(a)   = c2(a) + Σ_{t at s} c1(t,a)   (y-step coefficient)
     forced.(s).(a) = #{t at s with φ(t,a)}        (single-sitedness)
     score.(s).(t)  = Σ_{a placed at s} c1(t,a)    (x-step cost)
     miss.(t).(s)   = #{a : φ(t,a), not placed at s}  (x feasibility)

   The first three are site-major, so a flip and an assign update one
   row each.  They read c1 through the evaluator's compressed lines
   ({!Delta_cost.lines}): a flip of [a] touches only the transactions
   with c1(t,a) or c3(t,a) ≠ 0, an assign of [t] only those attributes.
   Leaving out the zero terms changes no value but the sign of a zero,
   which no comparison of the sub-steps can see, so every move is the
   one the dense loops would make.  Rejected proposals are rolled back
   through an engine journal that mirrors the {!Delta_cost} one, three
   ints per primitive: [(a, s, added)] for a flip, [(-t - 1, s_old,
   s_new)] for an assign. *)
let delta_replicated_engine ctx rng part =
  let stats = ctx.stats and opts = ctx.opts in
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = opts.num_sites in
  let dc =
    Delta_cost.create ?latency:ctx.latency stats ~lambda:opts.lambda part
  in
  let rows, cols = Delta_cost.lines dc in
  let row_c1 = rows.Vec.vals.(0) and col_c1 = cols.Vec.vals.(0) in
  let coef = Array.make_matrix ns na 0. in
  let forced = Array.make_matrix ns na 0 in
  let score = Array.make_matrix ns nt 0. in
  let miss = Array.make_matrix nt ns 0 in
  (* a replica of [a] arrived on ([on]) or left site [s] *)
  let shift_score a s on =
    let sign = if on then 1. else -1. in
    let sc = score.(s) in
    for k = cols.Vec.ptr.(a) to cols.Vec.ptr.(a + 1) - 1 do
      let t = cols.Vec.idx.(k) in
      sc.(t) <- sc.(t) +. (sign *. col_c1.{k})
    done
  in
  let rebuild_aggregates () =
    for s = 0 to ns - 1 do
      Array.blit stats.Stats.c2 0 coef.(s) 0 na;
      Array.fill forced.(s) 0 na 0;
      Array.fill score.(s) 0 nt 0.
    done;
    for t = 0 to nt - 1 do
      let home = part.Partitioning.txn_site.(t) in
      let cf = coef.(home) and fc = forced.(home) in
      for k = rows.Vec.ptr.(t) to rows.Vec.ptr.(t + 1) - 1 do
        let a = rows.Vec.idx.(k) in
        cf.(a) <- cf.(a) +. row_c1.{k}
      done;
      Array.iter (fun a -> fc.(a) <- fc.(a) + 1) ctx.phi_attrs.(t)
    done;
    (* attribute outer, transaction inner: each score entry still takes
       its c1 terms in ascending attribute order *)
    for a = 0 to na - 1 do
      let row = part.Partitioning.placed.(a) in
      for s = 0 to ns - 1 do
        if row.(s) then shift_score a s true
      done
    done;
    for t = 0 to nt - 1 do
      let nphi = Array.length ctx.phi_attrs.(t) in
      for s = 0 to ns - 1 do
        let m = ref nphi in
        Array.iter
          (fun a -> if part.Partitioning.placed.(a).(s) then decr m)
          ctx.phi_attrs.(t);
        miss.(t).(s) <- !m
      done
    done
  in
  rebuild_aggregates ();
  let scale = coef_scale stats rows in
  let kept_coef = Array.make_matrix ns na 0. in
  let kept_score = Array.make_matrix ns nt 0. in
  let kept_forced = Array.make_matrix ns na 0 in
  let kept_miss = Array.make_matrix nt ns 0 in
  let journal = empty_journal () in
  let txn_draw = Array.make nt 0 and attr_draw = Array.make na 0 in
  let shift_miss a s on =
    let d = if on then -1 else 1 in
    let txns = ctx.phi_txns.(a) in
    for k = 0 to Array.length txns - 1 do
      let t = txns.(k) in
      miss.(t).(s) <- miss.(t).(s) + d
    done
  in
  let move_txn t from_s to_s =
    let cf_from = coef.(from_s) and cf_to = coef.(to_s) in
    for k = rows.Vec.ptr.(t) to rows.Vec.ptr.(t + 1) - 1 do
      let a = rows.Vec.idx.(k) and c = row_c1.{k} in
      cf_from.(a) <- cf_from.(a) -. c;
      cf_to.(a) <- cf_to.(a) +. c
    done;
    let fc_from = forced.(from_s) and fc_to = forced.(to_s) in
    let phi = ctx.phi_attrs.(t) in
    for k = 0 to Array.length phi - 1 do
      let a = phi.(k) in
      fc_from.(a) <- fc_from.(a) - 1;
      fc_to.(a) <- fc_to.(a) + 1
    done
  in
  let flip a s =
    let added = not part.Partitioning.placed.(a).(s) in
    ignore (Delta_cost.apply_move dc (Delta_cost.Flip (a, s)));
    shift_score a s added;
    shift_miss a s added;
    push journal a;
    push journal s;
    push journal (if added then 1 else 0)
  in
  let assign t s =
    let s_old = part.Partitioning.txn_site.(t) in
    if s_old <> s then begin
      ignore (Delta_cost.apply_move dc (Delta_cost.Assign (t, s)));
      move_txn t s_old s;
      push journal (-t - 1);
      push journal s_old;
      push journal s
    end
  in
  let reject () =
    (* top of the journal = last primitive applied: popping keeps the
       engine aggregates and the Delta_cost journal in lockstep *)
    let j = journal.items in
    let i = ref (journal.top - 3) in
    while !i >= 0 do
      let x = j.(!i) and y = j.(!i + 1) and z = j.(!i + 2) in
      Delta_cost.undo_move dc;
      if x >= 0 then begin
        let added = z = 1 in
        shift_score x y (not added);
        shift_miss x y (not added)
      end
      else move_txn (-x - 1) z y;
      i := !i - 3
    done;
    journal.top <- 0;
    Delta_cost.commit dc
  in
  let ystep () =
    (* y optimal given x, from the maintained coefficients: same
       placement rule as [optimize_y_given_x], applied as diffs *)
    for a = 0 to na - 1 do
      let row = part.Partitioning.placed.(a) in
      let any = ref false in
      for s = 0 to ns - 1 do
        if forced.(s).(a) > 0 || coef.(s).(a) < 0. then any := true
      done;
      if !any then
        for s = 0 to ns - 1 do
          let want = forced.(s).(a) > 0 || coef.(s).(a) < 0. in
          if want <> row.(s) then flip a s
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
        if miss.(t).(s) = 0 && score.(s).(t) < !best_c then begin
          best := s;
          best_c := score.(s).(t)
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
           for i = 0 to Rng.sample_distinct_into rng k txn_draw - 1 do
             let t = txn_draw.(i) in
             let cur = part.Partitioning.txn_site.(t) in
             let s = Rng.int rng (ns - 1) in
             assign t (if s >= cur then s + 1 else s)
           done
         end;
         if na > 0 && ns > 1 then begin
           let k = count_moves opts.move_fraction na in
           for i = 0 to Rng.sample_distinct_into rng k attr_draw - 1 do
             let a = attr_draw.(i) in
             (* a uniform draw among the sites not holding [a], in
                ascending order *)
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
               flip a !s
             end
           done
         end;
         (match fix with
          | `Fix_x -> Obs.timed "sa.ystep.seconds" ystep
          | `Fix_y -> Obs.timed "sa.xstep.seconds" xstep);
         Delta_cost.objective dc);
    accept =
      (fun () ->
         journal.top <- 0;
         Delta_cost.commit dc);
    reject;
    snapshot_best = (fun () -> Partitioning.copy part);
    epoch_refresh =
      (fun _ ->
         copy_rows coef kept_coef;
         copy_rows score kept_score;
         copy_rows forced kept_forced;
         copy_rows miss kept_miss;
         rebuild_aggregates ();
         audit "coef" ~scale kept_coef coef;
         audit "score" ~scale kept_score score;
         if kept_forced <> forced || kept_miss <> miss then
           invalid_arg
             "Sa_solver: internal invariant broken: forced/miss counts \
              differ from a rebuild";
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
   needs maintaining, site-major ([coef.(s).(a)]) and from the
   evaluator's compressed rows, as in the replicated engine.  The
   journal holds two ints per primitive: [(c, s_old)] for a component
   move, [(-1, 0)] for one never-read re-placement. *)
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
  let rows, _ = Delta_cost.lines dc in
  let row_c1 = rows.Vec.vals.(0) in
  let coef = Array.make_matrix ns na 0. in
  let rebuild_coef () =
    for s = 0 to ns - 1 do
      Array.blit stats.Stats.c2 0 coef.(s) 0 na
    done;
    for t = 0 to nt - 1 do
      let cf = coef.(part.Partitioning.txn_site.(t)) in
      for k = rows.Vec.ptr.(t) to rows.Vec.ptr.(t + 1) - 1 do
        let a = rows.Vec.idx.(k) in
        cf.(a) <- cf.(a) +. row_c1.{k}
      done
    done
  in
  rebuild_coef ();
  let scale = coef_scale stats rows in
  let kept_coef = Array.make_matrix ns na 0. in
  let journal = empty_journal () in
  let comp_draw = Array.make dctx.ncomp 0 in
  let shift_coef txns from_s to_s =
    let cf_from = coef.(from_s) and cf_to = coef.(to_s) in
    for i = 0 to Array.length txns - 1 do
      let t = txns.(i) in
      for k = rows.Vec.ptr.(t) to rows.Vec.ptr.(t + 1) - 1 do
        let a = rows.Vec.idx.(k) and c = row_c1.{k} in
        cf_from.(a) <- cf_from.(a) -. c;
        cf_to.(a) <- cf_to.(a) +. c
      done
    done
  in
  let move_comp c s =
    let s_old = comp_site.(c) in
    comp_site.(c) <- s;
    ignore
      (Delta_cost.apply_move dc
         (Delta_cost.Move_component (dctx.comp_txns.(c), dctx.comp_attrs.(c), s)));
    shift_coef dctx.comp_txns.(c) s_old s;
    push journal c;
    push journal s_old
  in
  {
    init_obj = Delta_cost.objective dc;
    propose =
      (fun _fix ->
         if ns > 1 then begin
           let k = count_moves opts.move_fraction dctx.ncomp in
           for i = 0 to Rng.sample_distinct_into rng k comp_draw - 1 do
             let c = comp_draw.(i) in
             let cur = comp_site.(c) in
             let s = Rng.int rng (ns - 1) in
             move_comp c (if s >= cur then s + 1 else s)
           done
         end;
         (* greedy re-placement of the never-read attributes, as in
            [disjoint_apply] *)
         Array.iter
           (fun a ->
              let best = ref 0 and best_c = ref coef.(0).(a) in
              for s = 1 to ns - 1 do
                if coef.(s).(a) < !best_c then begin
                  best := s;
                  best_c := coef.(s).(a)
                end
              done;
              if not part.Partitioning.placed.(a).(!best) then begin
                ignore
                  (Delta_cost.apply_move dc
                     (Delta_cost.Move_component ([||], [| a |], !best)));
                push journal (-1);
                push journal 0
              end)
           dctx.never_read;
         Delta_cost.objective dc);
    accept =
      (fun () ->
         journal.top <- 0;
         Delta_cost.commit dc);
    reject =
      (fun () ->
         let j = journal.items in
         let i = ref (journal.top - 2) in
         while !i >= 0 do
           let c = j.(!i) in
           Delta_cost.undo_move dc;
           if c >= 0 then begin
             let s_new = comp_site.(c) and s_old = j.(!i + 1) in
             comp_site.(c) <- s_old;
             shift_coef dctx.comp_txns.(c) s_new s_old
           end;
           i := !i - 2
         done;
         journal.top <- 0;
         Delta_cost.commit dc);
    snapshot_best = (fun () -> Partitioning.copy part);
    epoch_refresh =
      (fun _ ->
         copy_rows coef kept_coef;
         rebuild_coef ();
         audit "coef" ~scale kept_coef coef;
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
  let objective part =
    Cost_model.objective ?latency:ctx.latency stats ~lambda:options.lambda part
  in
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
      let epoch_hook best_obj best =
        publish best_obj best;
        match Atomic.get cell with
        | gobj, Some gpart when gobj < best_obj ->
          if options.allow_replication then begin
            (* Side polish on a private copy; publish any improvement. *)
            let c = Partitioning.copy gpart in
            optimize_y_given_x stats options c;
            optimize_x_given_y stats options c;
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
