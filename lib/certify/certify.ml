module Diagnostic = Vpart_analysis.Diagnostic

let rel tol reference = tol *. (1. +. Float.abs reference)

type options = { tol : float; cone_tol : float }

let default_options = { tol = 1e-5; cone_tol = 1e-7 }

let string_of_cmp = function Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "="

(* ------------------------------------------------------------------ *)
(* Primal certificates                                                *)
(* ------------------------------------------------------------------ *)

let certify_point ?(tol = 1e-5) ?var_name (std : Lp.std) x =
  List.map
    (fun v ->
       let msg =
         Format.asprintf "%a (tolerance %g)" (Lp.pp_violation ?var_name ()) v
           tol
       in
       let code =
         match v with
         | Lp.Wrong_length _ | Lp.Non_finite _ -> "C001"
         | Lp.Bound_violation _ -> "C002"
         | Lp.Not_integral _ -> "C003"
         | Lp.Row_violation _ -> "C004"
       in
       Diagnostic.error ~code "%s" msg)
    (Lp.feasibility_violations ~tol std x)

(* ------------------------------------------------------------------ *)
(* Dual certificates                                                  *)
(* ------------------------------------------------------------------ *)

let clamp_duals ?(tol = 1e-7) (std : Lp.std) y =
  let diags = ref [] in
  let yc = Array.copy y in
  Array.iteri
    (fun r cmp ->
       let v = y.(r) in
       let out_of_cone =
         match cmp with
         | Lp.Le -> v > 0.
         | Lp.Ge -> v < 0.
         | Lp.Eq -> false
       in
       if out_of_cone then begin
         if Float.abs v > tol then
           diags :=
             Diagnostic.warning ~code:"C101"
               "dual multiplier y[%d] = %g lies outside the dual cone of a \
                '%s' row (residual %g exceeds cone tolerance %g); clamped to \
                0 for the bound"
               r v (string_of_cmp cmp) (Float.abs v) tol
             :: !diags;
         yc.(r) <- 0.
       end)
    std.Lp.row_cmp;
  (yc, List.rev !diags)

let reduced_costs (std : Lp.std) y =
  let d = Array.copy std.Lp.obj in
  for r = 0 to std.Lp.nrows - 1 do
    let yr = y.(r) in
    if yr <> 0. then
      Array.iteri
        (fun k j -> d.(j) <- d.(j) -. (yr *. std.Lp.row_val.(r).(k)))
        std.Lp.row_idx.(r)
  done;
  d

let lagrangian_bound (std : Lp.std) y =
  let d = reduced_costs std y in
  let bound = ref std.Lp.obj_const in
  Array.iteri (fun r yr -> bound := !bound +. (yr *. std.Lp.rhs.(r))) y;
  Array.iteri
    (fun j dj ->
       let noise = 1e-7 *. (1. +. Float.abs std.Lp.obj.(j)) in
       if dj > 0. then begin
         (* contribution d_j·l_j; treat numerical noise as zero against an
            infinite bound rather than collapsing the whole bound to -inf *)
         if Float.is_finite std.Lp.lb.(j) then
           bound := !bound +. (dj *. std.Lp.lb.(j))
         else if dj > noise then bound := neg_infinity
       end
       else if dj < 0. then begin
         if Float.is_finite std.Lp.ub.(j) then
           bound := !bound +. (dj *. std.Lp.ub.(j))
         else if dj < -.noise then bound := neg_infinity
       end)
    d;
  !bound

let farkas_proves_infeasible ?(tol = 1e-7) (std : Lp.std) y =
  Array.length y = std.Lp.nrows
  && Array.for_all Float.is_finite y
  && Array.exists (fun v -> v <> 0.) y
  &&
  (* t = Aᵀy over the structural columns *)
  let t = Array.make std.Lp.ncols 0. in
  for r = 0 to std.Lp.nrows - 1 do
    let yr = y.(r) in
    if yr <> 0. then
      Array.iteri
        (fun k j -> t.(j) <- t.(j) +. (yr *. std.Lp.row_val.(r).(k)))
        std.Lp.row_idx.(r)
  done;
  (* Range of yᵀ(Ax + s) over the true variable boxes and slack cones:
     the simplex encodes [row cmp rhs] as [row + s = rhs] with slack
     s >= 0 for <=, s <= 0 for >=, s = 0 for =. *)
  let fmax = ref 0. and fmin = ref 0. in
  let yrhs = ref 0. and scale = ref 1. in
  Array.iteri
    (fun j tj ->
       if tj > 0. then begin
         fmax := !fmax +. (tj *. std.Lp.ub.(j));
         fmin := !fmin +. (tj *. std.Lp.lb.(j));
         scale := !scale +. Float.abs tj
       end
       else if tj < 0. then begin
         fmax := !fmax +. (tj *. std.Lp.lb.(j));
         fmin := !fmin +. (tj *. std.Lp.ub.(j));
         scale := !scale +. Float.abs tj
       end)
    t;
  Array.iteri
    (fun r yr ->
       yrhs := !yrhs +. (yr *. std.Lp.rhs.(r));
       scale := !scale +. Float.abs (yr *. std.Lp.rhs.(r));
       match std.Lp.row_cmp.(r) with
       | Lp.Le ->
         if yr > 0. then fmax := infinity
         else if yr < 0. then fmin := neg_infinity
       | Lp.Ge ->
         if yr > 0. then fmin := neg_infinity
         else if yr < 0. then fmax := infinity
       | Lp.Eq -> ())
    y;
  let eps = tol *. !scale in
  !yrhs > !fmax +. eps || !yrhs < !fmin -. eps

(* ------------------------------------------------------------------ *)
(* Whole-solve certification                                          *)
(* ------------------------------------------------------------------ *)

let certify_mip ?(options = default_options) ?(gap = Mip.default_limits.Mip.gap)
    ?var_name model outcome (stats : Mip.stats) =
  Obs.with_span "certify.mip" @@ fun () ->
  let tol = options.tol in
  let std = Lp.standardize model in
  let audit = stats.Mip.audit in
  let diags = ref [] in
  let add d = diags := d :: !diags in

  (* Primal side: the incumbent and its claimed objective. *)
  let primal_checks (sol : Mip.solution) =
    Obs.timed "certify.primal.seconds" @@ fun () ->
    List.iter add (certify_point ~tol ?var_name std sol.Mip.x);
    let obj_min = Lp.restore_objective std sol.Mip.obj in
    if Array.length sol.Mip.x = std.Lp.ncols
       && Array.for_all Float.is_finite sol.Mip.x
    then begin
      let fresh = Lp.eval_objective std sol.Mip.x in
      if not (Float.abs (fresh -. obj_min) <= rel tol obj_min) then
        add
          (Diagnostic.error ~code:"C005"
             "claimed objective %g differs from independent re-evaluation %g \
              (residual %g exceeds tolerance %g)"
             sol.Mip.obj
             (Lp.restore_objective std fresh)
             (Float.abs (fresh -. obj_min))
             (rel tol obj_min))
    end;
    obj_min
  in

  (* Dual side: the root LP certificate, checked against the original
     matrix.  [primal_obj_min] is the certified incumbent value (if any)
     for the weak-duality check. *)
  let dual_checks ~primal_obj_min =
    Obs.timed "certify.dual.seconds" @@ fun () ->
    match audit.Mip.root_lp with
    | None ->
      add
        (Diagnostic.info ~code:"C111"
           "no root LP certificate returned: dual-side claims cannot be \
            independently checked")
    | Some cert ->
      if
        Array.length cert.Mip.lp_y <> std.Lp.nrows
        || not (Array.for_all Float.is_finite cert.Mip.lp_y)
      then
        add
          (Diagnostic.error ~code:"C103"
             "root LP dual vector malformed (length %d for %d rows, or \
              non-finite entries): bound claims unverifiable"
             (Array.length cert.Mip.lp_y) std.Lp.nrows)
      else begin
        let yc, cone = clamp_duals ~tol:options.cone_tol std cert.Mip.lp_y in
        List.iter add cone;
        (* C102: the solver's reported reduced costs vs c - Aᵀy. *)
        let d = reduced_costs std cert.Mip.lp_y in
        if Array.length cert.Mip.lp_reduced <> std.Lp.ncols then
          add
            (Diagnostic.warning ~code:"C102"
               "reported reduced-cost vector has length %d, expected %d"
               (Array.length cert.Mip.lp_reduced)
               std.Lp.ncols)
        else begin
          let worst = ref 0. and worst_j = ref (-1) in
          Array.iteri
            (fun j dj ->
               let e =
                 Float.abs (dj -. cert.Mip.lp_reduced.(j))
                 /. (1. +. Float.abs dj)
               in
               if e > !worst then begin
                 worst := e;
                 worst_j := j
               end)
            d;
          if !worst > tol then
            add
              (Diagnostic.warning ~code:"C102"
                 "reported reduced cost of column %d disagrees with c - A'y \
                  (relative error %g exceeds tolerance %g)"
                 !worst_j !worst tol)
        end;
        let lb = lagrangian_bound std yc in
        (* C103: weak duality against the certified incumbent. *)
        (match primal_obj_min with
         | Some obj when lb > obj +. rel tol obj ->
           add
             (Diagnostic.error ~code:"C103"
                "weak duality violated: certified dual bound %g exceeds \
                 certified incumbent objective %g (residual %g exceeds \
                 tolerance %g)"
                lb obj (lb -. obj) (rel tol obj))
         | _ -> ());
        (* C104: the claimed root LP objective vs the recomputed bound. *)
        if not (Float.abs (lb -. cert.Mip.lp_obj) <= rel tol cert.Mip.lp_obj)
        then
          add
            (Diagnostic.warning ~code:"C104"
               "root LP certificate inconsistent: recomputed Lagrangian \
                bound %g vs claimed LP objective %g (residual %g exceeds \
                tolerance %g)"
               lb cert.Mip.lp_obj
               (Float.abs (lb -. cert.Mip.lp_obj))
               (rel tol cert.Mip.lp_obj));
        (* C109: complementary slackness at the root optimum. *)
        if
          Array.length cert.Mip.lp_x = std.Lp.ncols
          && Array.for_all Float.is_finite cert.Mip.lp_x
        then begin
          let violations = ref 0 and worst = ref 0. and worst_j = ref (-1) in
          let worst_tol = ref 0. in
          Array.iteri
            (fun j dj ->
               let v = cert.Mip.lp_x.(j) in
               let eps = 1e-6 *. (1. +. Float.abs v) in
               let cs_tol = rel tol std.Lp.obj.(j) in
               let bad =
                 (* A fixed column (lb = ub, e.g. symmetry pinning) is at
                    both bounds at once: either reduced-cost sign is
                    complementary. *)
                 if std.Lp.ub.(j) -. std.Lp.lb.(j) <= 2. *. eps then false
                 else if v > std.Lp.lb.(j) +. eps && v < std.Lp.ub.(j) -. eps
                 then Float.abs dj > cs_tol
                 else if v <= std.Lp.lb.(j) +. eps then dj < -.cs_tol
                 else dj > cs_tol
               in
               if bad then begin
                 incr violations;
                 if Float.abs dj > !worst then begin
                   worst := Float.abs dj;
                   worst_j := j;
                   worst_tol := cs_tol
                 end
               end)
            d;
          if !violations > 0 then
            add
              (Diagnostic.warning ~code:"C109"
                 "complementary slackness fails at the root LP optimum for \
                  %d column(s) (worst: column %d, reduced cost %g exceeds \
                  tolerance %g)"
                 !violations !worst_j !worst !worst_tol)
        end
      end
  in

  (* Bound side: audited proven bound, its support, the outcome's claimed
     bound and the reported gap must all agree. *)
  let bound_checks ~claimed_bound_min ~obj_min =
    Obs.timed "certify.bounds.seconds" @@ fun () ->
    (match audit.Mip.proven_bound with
     | Some pb ->
       if Array.length audit.Mip.bound_support = 0 then
         add
           (Diagnostic.warning ~code:"C110"
              "proven bound %g has no supporting node bounds in the audit" pb)
       else begin
         let m = Array.fold_left Float.min infinity audit.Mip.bound_support in
         if not (Float.abs (pb -. m) <= rel tol m) then
           add
             (Diagnostic.error ~code:"C110"
                "claimed proven bound %g is not the minimum %g of its %d \
                 supporting node bounds (residual %g exceeds tolerance %g)"
                pb m
                (Array.length audit.Mip.bound_support)
                (Float.abs (pb -. m))
                (rel tol m))
       end;
       (match claimed_bound_min with
        | Some cb
          when Float.is_finite cb && not (Float.abs (cb -. pb) <= rel tol pb)
          ->
          add
            (Diagnostic.error ~code:"C105"
               "outcome bound %g disagrees with audited proven bound %g" cb pb)
        | _ -> ())
     | None ->
       (match claimed_bound_min with
        | Some cb when Float.is_finite cb ->
          add
            (Diagnostic.warning ~code:"C105"
               "outcome claims bound %g but the audit records no proven bound"
               cb)
        | _ -> ()));
    match obj_min with
    | Some o ->
      let b =
        match audit.Mip.proven_bound with
        | Some pb -> Some pb
        | None -> claimed_bound_min
      in
      (match b with
       | Some b when Float.is_finite b ->
         let g = Float.max 0. ((o -. b) /. Float.max 1. (Float.abs o)) in
         if
           Float.is_finite stats.Mip.gap_achieved
           && Float.abs (stats.Mip.gap_achieved -. g) > tol
         then
           add
             (Diagnostic.error ~code:"C105"
                "reported gap %g disagrees with gap %g recomputed from \
                 objective %g and bound %g (residual %g exceeds tolerance %g)"
                stats.Mip.gap_achieved g o b
                (Float.abs (stats.Mip.gap_achieved -. g))
                tol)
       | _ ->
         if Float.is_finite stats.Mip.gap_achieved then
           add
             (Diagnostic.error ~code:"C105"
                "finite gap %g reported without any finite proven bound"
                stats.Mip.gap_achieved))
    | None ->
      if Float.is_finite stats.Mip.gap_achieved then
        add
          (Diagnostic.error ~code:"C105"
             "finite gap %g reported without an incumbent"
             stats.Mip.gap_achieved)
  in

  if audit.Mip.numerical_prunes > 0 then
    add
      (Diagnostic.info ~code:"C111"
         "%d subtree(s) abandoned on numerical trouble; optimality proofs \
          degrade to the root bound"
         audit.Mip.numerical_prunes);

  (match outcome with
   | Mip.Optimal sol ->
     let obj_min = primal_checks sol in
     dual_checks ~primal_obj_min:(Some obj_min);
     bound_checks ~claimed_bound_min:None ~obj_min:(Some obj_min);
     (match audit.Mip.proven_bound with
      | Some pb ->
        let g = Float.max 0. ((obj_min -. pb) /. Float.max 1. (Float.abs obj_min)) in
        if g > gap +. tol then
          add
            (Diagnostic.error ~code:"C106"
               "optimality claimed but the certified gap %g exceeds the gap \
                tolerance %g (residual %g over the slack tolerance %g)"
               g gap (g -. gap) tol)
      | None ->
        add
          (Diagnostic.warning ~code:"C106"
             "optimality claimed but the audit records no proven bound"))
   | Mip.Feasible (sol, bound) ->
     let obj_min = primal_checks sol in
     let b_min = Lp.restore_objective std bound in
     if Float.is_finite b_min && b_min > obj_min +. rel tol obj_min then
       add
         (Diagnostic.error ~code:"C105"
            "claimed lower bound %g exceeds the incumbent objective %g" b_min
            obj_min);
     dual_checks ~primal_obj_min:(Some obj_min);
     bound_checks ~claimed_bound_min:(Some b_min) ~obj_min:(Some obj_min)
   | Mip.No_incumbent b ->
     dual_checks ~primal_obj_min:None;
     bound_checks
       ~claimed_bound_min:(Option.map (Lp.restore_objective std) b)
       ~obj_min:None
   | Mip.Infeasible ->
     (match audit.Mip.farkas with
      | Some ray ->
        if not (farkas_proves_infeasible ~tol std ray) then
          add
            (Diagnostic.error ~code:"C107"
               "returned Farkas multiplier does not prove infeasibility of \
                the original model")
      | None ->
        add
          (Diagnostic.info ~code:"C108"
             "infeasibility claim carries no single-multiplier certificate \
              (exhaustive search)"))
   | Mip.Unbounded ->
     add
       (Diagnostic.info ~code:"C111"
          "unboundedness claims are not independently certified")
   | Mip.Too_large { rows; limit } ->
     if rows <> std.Lp.nrows then
       add
         (Diagnostic.error ~code:"C105"
            "refusal claims %d rows but the model has %d" rows std.Lp.nrows);
     if rows <= limit then
       add
         (Diagnostic.error ~code:"C105"
            "refusal claims %d rows against a limit of %d, which does not \
             exceed it"
            rows limit));

  Diagnostic.sort (List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Site-symmetry pinning                                              *)
(* ------------------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Order-independent hash of row [r] with every column [j] renamed to
   [perm.(j)]: it only narrows the candidates, {!row_maps_to} decides.
   Each entry is finalized (xor-shift-multiply) before the sum: summed raw,
   entries with equal coefficients would hash to the sum of their column
   ids.  The float's high word is folded in, so its sign counts. *)
let row_hash (std : Lp.std) perm r =
  let mix a v =
    let b = Int64.bits_of_float v in
    let x =
      (a * 0x9E3779B1) lxor Int64.to_int b
      lxor Int64.to_int (Int64.shift_right_logical b 32)
    in
    let x = (x lxor (x lsr 31)) * 0x2545F4914F6CDD1D in
    x lxor (x lsr 29)
  in
  let cmp = match std.Lp.row_cmp.(r) with Lp.Le -> 1 | Lp.Ge -> 2 | Lp.Eq -> 3 in
  let idx = std.Lp.row_idx.(r) and v = std.Lp.row_val.(r) in
  let h = ref (mix cmp std.Lp.rhs.(r)) in
  for i = 0 to Array.length idx - 1 do
    h := !h + mix perm.(idx.(i)) v.(i)
  done;
  !h

(* Is row [r], renamed through [perm], bit for bit row [r']?  Columns are
   distinct and [perm] is a bijection, so equal lengths plus every
   renamed entry found in [r'] is equality.  [pos] is all -1 scratch,
   one slot per column, and is left that way. *)
let row_maps_to (std : Lp.std) pos perm r r' =
  let idx = std.Lp.row_idx.(r) and idx' = std.Lp.row_idx.(r') in
  let v = std.Lp.row_val.(r) and v' = std.Lp.row_val.(r') in
  Array.length idx = Array.length idx'
  && std.Lp.row_cmp.(r) = std.Lp.row_cmp.(r')
  && same_bits std.Lp.rhs.(r) std.Lp.rhs.(r')
  &&
  (for k = 0 to Array.length idx' - 1 do
     pos.(idx'.(k)) <- k
   done;
   let ok = ref true in
   for i = 0 to Array.length idx - 1 do
     let k = pos.(perm.(idx.(i))) in
     if not (k >= 0 && same_bits v.(i) v'.(k)) then ok := false
   done;
   for k = 0 to Array.length idx' - 1 do
     pos.(idx'.(k)) <- -1
   done;
   !ok)

let certify_site_pinning ?var_name ~sites ~assign ~families (std : Lp.std) =
  Obs.with_span "certify.site_pinning" @@ fun () ->
  let n = std.Lp.ncols in
  let name j =
    match var_name with Some f -> f j | None -> Printf.sprintf "x%d" j
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Every family is one column per site, and no column is in two. *)
  let all = Array.to_list assign @ families in
  let owner = Array.make n false in
  let shape_ok =
    List.for_all
      (fun f ->
         Array.length f = sites
         && Array.for_all
              (fun j ->
                 let fresh = j >= 0 && j < n && not owner.(j) in
                 if fresh then owner.(j) <- true;
                 fresh)
              f)
      all
  in
  if not shape_ok then
    add
      (Diagnostic.error ~code:"C112"
         "site families are not %d distinct columns each, so no site \
          permutation is defined"
         sites)
  else begin
    (* The pins are exactly x_{t,s} = 0 for s > t, over binary columns. *)
    let expected = Array.make n false in
    Array.iteri
      (fun t row -> Array.iteri (fun s j -> if s > t then expected.(j) <- true) row)
      assign;
    for j = 0 to n - 1 do
      let fixed = std.Lp.lb.(j) = std.Lp.ub.(j) in
      if expected.(j) && not (fixed && std.Lp.ub.(j) = 0.) then
        add
          (Diagnostic.error ~code:"C112"
             "%s should be pinned to 0 but has bounds [%g, %g]" (name j)
             std.Lp.lb.(j) std.Lp.ub.(j))
      else if fixed && not expected.(j) then
        add
          (Diagnostic.error ~code:"C112"
             "%s is fixed to %g but is not a lexicographic site pin" (name j)
             std.Lp.lb.(j))
    done;
    (* The model with the pins relaxed back to [0, 1]. *)
    let ub j = if expected.(j) then 1. else std.Lp.ub.(j) in
    Array.iter
      (Array.iter (fun j ->
           if not (std.Lp.lb.(j) = 0. && ub j = 1. && std.Lp.integer.(j)) then
             add
               (Diagnostic.error ~code:"C112"
                  "assignment column %s is not binary" (name j))))
      assign;
    (* Each assignment group needs a row sum_s x_{t,s} = 1: one home each,
       so relabelling sites by first appearance meets every pin. *)
    let assign_rows = Hashtbl.create (Array.length assign) in
    for r = 0 to std.Lp.nrows - 1 do
      if std.Lp.row_cmp.(r) = Lp.Eq && std.Lp.rhs.(r) = 1.
         && Array.for_all (fun v -> v = 1.) std.Lp.row_val.(r)
      then Hashtbl.replace assign_rows std.Lp.row_idx.(r) ()
    done;
    Array.iteri
      (fun t row ->
         let cols = Array.copy row in
         Array.sort Int.compare cols;
         if not (Hashtbl.mem assign_rows cols) then
           add
             (Diagnostic.error ~code:"C112"
                "assignment group %d has no row summing its columns to 1" t))
      assign;
    (* Adjacent transpositions generate every site permutation: each must
       map the relaxed model onto itself, bit for bit.  Rows form a
       multiset: the image of row r must occur exactly as often as r. *)
    let identity = Array.init n Fun.id in
    (* Rows chained by hash: [head] per bucket, [next] per row. *)
    let m = std.Lp.nrows in
    let mask =
      let rec pow2 k = if k >= 2 * m then k else pow2 (2 * k) in
      pow2 1 - 1
    in
    let hash = Array.init m (row_hash std identity) in
    let head = Array.make (mask + 1) (-1) and next = Array.make m (-1) in
    for r = 0 to m - 1 do
      let b = hash.(r) land mask in
      next.(r) <- head.(b);
      head.(b) <- r
    done;
    let pos = Array.make n (-1) in
    (* Rows equal to [r] renamed through [p]; under [identity], [r] itself
       counts without a comparison. *)
    let occurrences p r h =
      let rec walk r' k =
        if r' < 0 then k
        else
          walk next.(r')
            (if hash.(r') = h
                && ((p == identity && r' = r) || row_maps_to std pos p r r')
             then k + 1
             else k)
      in
      walk head.(h land mask) 0
    in
    let copies = Array.init m (fun r -> occurrences identity r hash.(r)) in
    let perm = Array.copy identity and moved = Array.make n false in
    let set_swap s on =
      List.iter
        (fun f ->
           let a = f.(s) and b = f.(s + 1) in
           perm.(a) <- (if on then b else a);
           perm.(b) <- (if on then a else b);
           moved.(a) <- on;
           moved.(b) <- on)
        all
    in
    for s = 0 to sites - 2 do
      set_swap s true;
      let bad_cols = ref 0 in
      for j = 0 to n - 1 do
        let k = perm.(j) in
        if moved.(j)
           && not
                (same_bits std.Lp.obj.(j) std.Lp.obj.(k)
                 && same_bits std.Lp.lb.(j) std.Lp.lb.(k)
                 && same_bits (ub j) (ub k)
                 && std.Lp.integer.(j) = std.Lp.integer.(k))
        then incr bad_cols
      done;
      let touched = ref 0 and bad_rows = ref 0 in
      for r = 0 to m - 1 do
        let idx = std.Lp.row_idx.(r) and hit = ref false in
        for i = 0 to Array.length idx - 1 do
          if moved.(idx.(i)) then hit := true
        done;
        if !hit then begin
          incr touched;
          if occurrences perm r (row_hash std perm r) <> copies.(r) then
            incr bad_rows
        end
      done;
      if !bad_cols > 0 || !bad_rows > 0 then
        add
          (Diagnostic.error ~code:"C112"
             "swapping sites %d and %d is not a symmetry of the model: %d \
              column(s) change objective, bounds or integrality, %d of %d \
              row(s) map off the model"
             s (s + 1) !bad_cols !bad_rows !touched);
      set_swap s false
    done
  end;
  Diagnostic.sort (List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Exact rational re-verification                                     *)
(* ------------------------------------------------------------------ *)

module Exact = struct
  module Q = Vpart_rational.Rational

  type verdict =
    | Exactly_valid
    | Masked_violation
    | Exactly_refuted
    | Unchecked

  type check = {
    claim : string;
    code : string;
    float_ok : bool;
    verdict : verdict;
    residual : Q.t;
    threshold : float;
  }

  type report = { checks : check list; findings : Diagnostic.t list }

  let empty = { checks = []; findings = [] }

  let merge a b =
    {
      checks = a.checks @ b.checks;
      findings = Diagnostic.sort (a.findings @ b.findings);
    }

  let counts r =
    List.fold_left
      (fun (v, m, rf, u) c ->
         match c.verdict with
         | Exactly_valid -> (v + 1, m, rf, u)
         | Masked_violation -> (v, m + 1, rf, u)
         | Exactly_refuted -> (v, m, rf + 1, u)
         | Unchecked -> (v, m, rf, u + 1))
      (0, 0, 0, 0) r.checks

  let worst_masked r =
    List.fold_left
      (fun acc c ->
         if c.verdict <> Masked_violation then acc
         else
           match acc with
           | Some best when Q.compare best.residual c.residual >= 0 -> acc
           | _ -> Some c)
      None r.checks

  let classify ~threshold residual =
    if Q.sign residual <= 0 then Exactly_valid
    else if Q.compare residual (Q.of_float threshold) <= 0 then
      Masked_violation
    else Exactly_refuted

  let make_check ~claim ~code ~float_ok ~threshold residual =
    {
      claim;
      code;
      float_ok;
      verdict = classify ~threshold residual;
      residual = Q.max Q.zero residual;
      threshold;
    }

  let unchecked ~claim ~code ~float_ok =
    { claim; code; float_ok; verdict = Unchecked; residual = Q.zero;
      threshold = 0. }

  let verdict_label = function
    | Exactly_valid -> "VALID"
    | Masked_violation -> "MASKED"
    | Exactly_refuted -> "REFUTED"
    | Unchecked -> "unchecked"

  let pp_check ppf c =
    Format.fprintf ppf "%-28s float %-4s  exact %-9s" c.claim
      (if c.float_ok then "PASS" else "FAIL")
      (verdict_label c.verdict);
    match c.verdict with
    | Masked_violation ->
      Format.fprintf ppf "  residual %s <= tolerance %g"
        (Q.to_short_string c.residual) c.threshold
    | Exactly_refuted ->
      Format.fprintf ppf "  residual %s > tolerance %g"
        (Q.to_short_string c.residual) c.threshold
    | Exactly_valid | Unchecked -> ()

  let pp_report ppf r =
    let v, m, rf, u = counts r in
    Format.fprintf ppf
      "@[<v>exact audit: %d check(s): %d exactly valid, %d \
       tolerance-masked, %d exactly refuted, %d unchecked"
      (List.length r.checks) v m rf u;
    List.iter (fun c -> Format.fprintf ppf "@,  %a" pp_check c) r.checks;
    (match worst_masked r with
     | Some c ->
       Format.fprintf ppf "@,  worst masked residual: %s (~%g) on %s"
         (Q.to_string c.residual)
         (Q.to_float c.residual) c.claim
     | None -> ());
    Format.fprintf ppf "@]"

  (* Extended rationals for the +/-infinity variable bounds. *)
  type ext = Neg_inf | Fin of Q.t | Pos_inf

  let ext_add_term acc term =
    match (acc, term) with
    | Neg_inf, _ | _, Neg_inf -> Neg_inf
    | Pos_inf, _ | _, Pos_inf -> Pos_inf
    | Fin a, Fin b -> Fin (Q.add a b)

  (* Exact c - A'y from the sparse rows. *)
  let exact_reduced_costs (std : Lp.std) yq =
    let d = Array.map Q.of_float std.Lp.obj in
    for r = 0 to std.Lp.nrows - 1 do
      let yr = yq.(r) in
      if not (Q.is_zero yr) then
        Array.iteri
          (fun k j ->
             d.(j) <-
               Q.sub d.(j) (Q.mul yr (Q.of_float std.Lp.row_val.(r).(k))))
          std.Lp.row_idx.(r)
    done;
    d

  (* ---------------------------------------------------------------- *)
  (* Primal feasibility (E001/E002)                                   *)
  (* ---------------------------------------------------------------- *)

  (* Every positive residual of the finite point [x] against the bounds,
     integrality and rows, labelled.  A bound or integrality residual of
     finite doubles is positive exactly when the float comparison says so,
     so it is only formed then; a row's is formed exactly, and only a
     positive one gets a label. *)
  let point_residuals ?var_name (std : Lp.std) x =
    let name j =
      match var_name with Some f -> f j | None -> Printf.sprintf "x%d" j
    in
    let items = ref [] in
    let push label residual = items := (label, residual) :: !items in
    let xq = Array.map Q.of_float x in
    for j = 0 to std.Lp.ncols - 1 do
      let lb = std.Lp.lb.(j) and ub = std.Lp.ub.(j) and v = x.(j) in
      if Float.is_finite lb && lb > v then
        push
          (Printf.sprintf "%s below lower bound %g" (name j) lb)
          (Q.sub (Q.of_float lb) xq.(j));
      if Float.is_finite ub && v > ub then
        push
          (Printf.sprintf "%s above upper bound %g" (name j) ub)
          (Q.sub xq.(j) (Q.of_float ub));
      if std.Lp.integer.(j) && v <> Float.round v then
        push
          (Printf.sprintf "%s non-integral" (name j))
          (Q.abs (Q.sub xq.(j) (Q.of_float (Float.round v))))
    done;
    for r = 0 to std.Lp.nrows - 1 do
      let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
      let act = ref Q.zero in
      for k = 0 to Array.length idx - 1 do
        act := Q.add !act (Q.mul (Q.of_float value.(k)) xq.(idx.(k)))
      done;
      let rhs = Q.of_float std.Lp.rhs.(r) in
      let residual =
        match std.Lp.row_cmp.(r) with
        | Lp.Le -> Q.sub !act rhs
        | Lp.Ge -> Q.sub rhs !act
        | Lp.Eq -> Q.abs (Q.sub !act rhs)
      in
      if Q.sign residual > 0 then
        push
          (Printf.sprintf "row %d activity %s rhs %g" r
             (match std.Lp.row_cmp.(r) with
              | Lp.Le -> "above"
              | Lp.Ge -> "below"
              | Lp.Eq -> "off")
             std.Lp.rhs.(r))
          residual
    done;
    List.rev !items

  let certify_point ?(options = default_options) ?var_name (std : Lp.std) x =
    let tol = options.tol in
    let float_ok = Lp.feasibility_violations ~tol std x = [] in
    if
      Array.length x <> std.Lp.ncols
      || not (Array.for_all Float.is_finite x)
    then
      {
        checks =
          [ { claim = "primal feasibility"; code = "E001"; float_ok;
              verdict = Exactly_refuted; residual = Q.zero; threshold = tol } ];
        findings =
          [ Diagnostic.error ~code:"E001"
              "primal point malformed (length %d for %d columns, or \
               non-finite coordinates): feasibility claim exactly refuted"
              (Array.length x) std.Lp.ncols ];
      }
    else begin
      let items = point_residuals ?var_name std x in
      let tq = Q.of_float tol in
      let refuted = List.filter (fun (_, r) -> Q.compare r tq > 0) items in
      let masked = List.filter (fun (_, r) -> Q.compare r tq <= 0) items in
      let findings =
        List.map
          (fun (label, r) ->
             Diagnostic.error ~code:"E001"
               "exactly refuted primal claim: %s by %s (exceeds the float \
                tolerance %g%s)"
               label (Q.to_short_string r) tol
               (if float_ok then
                  "; float certification passes — the violation is \
                   invisible at machine precision"
                else ""))
          refuted
        @
        match masked with
        | [] -> []
        | (l0, r0) :: _ ->
          let worst =
            List.fold_left
              (fun (wl, wr) (l, r) ->
                 if Q.compare r wr > 0 then (l, r) else (wl, wr))
              (l0, r0) masked
          in
          [ Diagnostic.warning ~code:"E002"
              "%d tolerance-masked primal residual(s): worst is %s by the \
               exact amount %s (within the float tolerance %g, so float \
               certification reports feasible)"
              (List.length masked) (fst worst)
              (Q.to_short_string (snd worst))
              tol ]
      in
      let worst =
        List.fold_left
          (fun acc (_, r) -> Q.max acc r)
          Q.zero items
      in
      {
        checks =
          [ make_check ~claim:"primal feasibility"
              ~code:(if refuted <> [] then "E001" else "E002")
              ~float_ok ~threshold:tol worst ];
        findings = Diagnostic.sort findings;
      }
    end

  (* ---------------------------------------------------------------- *)
  (* Whole-solve exact audit                                          *)
  (* ---------------------------------------------------------------- *)

  let audit ?(options = default_options) ?(gap = Mip.default_limits.Mip.gap)
      ?var_name model outcome (stats : Mip.stats) =
    Obs.with_span "certify.exact" @@ fun () ->
    let std = Lp.standardize model in
    let adt = stats.Mip.audit in
    let tol = options.tol in
    let checks = ref [] and findings = ref [] in
    let addc c = checks := c :: !checks in
    let addf f = findings := f :: !findings in
    let addr (r : report) =
      List.iter addc r.checks;
      List.iter addf r.findings
    in
    (* Emit a value-comparison check: classify the exact residual against
       the float threshold and attach the matching finding.  [detail] is
       only rendered into a finding. *)
    let value_check ~claim ~refuted_code ~masked_code ~refuted_sev ~masked_sev
        ~float_ok ~threshold residual detail =
      let verdict = classify ~threshold residual in
      let code =
        if verdict = Exactly_refuted then refuted_code else masked_code
      in
      addc (make_check ~claim ~code ~float_ok ~threshold residual);
      match verdict with
      | Exactly_refuted ->
        addf
          {
            Diagnostic.code = refuted_code;
            severity = refuted_sev;
            message =
              Printf.sprintf
                "exactly refuted %s: %s (exact residual %s exceeds the \
                 float tolerance %g%s)"
                claim (detail ())
                (Q.to_short_string residual)
                threshold
                (if float_ok then
                   "; float certification passes — tolerance-masked \
                    refutation"
                 else "");
          }
      | Masked_violation ->
        addf
          {
            Diagnostic.code = masked_code;
            severity = masked_sev;
            message =
              Printf.sprintf
                "tolerance-masked %s drift: %s (exact residual %s within \
                 the float tolerance %g)"
                claim (detail ())
                (Q.to_short_string residual)
                threshold;
          }
      | Exactly_valid | Unchecked -> ()
    in

    (* Primal feasibility + the claimed objective value.  Returns the exact
       re-evaluated objective (minimization sense) when computable. *)
    let primal (sol : Mip.solution) =
      addr (certify_point ~options ?var_name std sol.Mip.x);
      let claimed_min = Lp.restore_objective std sol.Mip.obj in
      if
        Array.length sol.Mip.x = std.Lp.ncols
        && Array.for_all Float.is_finite sol.Mip.x
        && Float.is_finite claimed_min
      then begin
        let xq = Array.map Q.of_float sol.Mip.x in
        let exact =
          let acc = ref (Q.of_float std.Lp.obj_const) in
          Array.iteri
            (fun j c ->
               if c <> 0. then acc := Q.add !acc (Q.mul (Q.of_float c) xq.(j)))
            std.Lp.obj;
          !acc
        in
        let threshold = rel tol claimed_min in
        let float_ok =
          Float.abs (Lp.eval_objective std sol.Mip.x -. claimed_min)
          <= threshold
        in
        value_check ~claim:"objective value" ~refuted_code:"E003"
          ~masked_code:"E004" ~refuted_sev:Diagnostic.Error
          ~masked_sev:Diagnostic.Info ~float_ok ~threshold
          (Q.abs (Q.sub exact (Q.of_float claimed_min)))
          (fun () ->
             Printf.sprintf "claimed %g vs exact re-evaluation %s" sol.Mip.obj
                (Q.to_short_string exact));
        (Some exact, Some claimed_min)
      end
      else (None, Some claimed_min)
    in

    (* Dual side: exact cone projection, exact reduced costs, exact
       Lagrangian bound; weak duality and root-LP-objective agreement. *)
    let exact_bound = ref None in
    let dual ~exact_obj ~claimed_obj =
      match adt.Mip.root_lp with
      | None -> addc (unchecked ~claim:"dual bound" ~code:"E005" ~float_ok:true)
      | Some cert ->
        if
          Array.length cert.Mip.lp_y <> std.Lp.nrows
          || not (Array.for_all Float.is_finite cert.Mip.lp_y)
        then
          addc (unchecked ~claim:"dual bound" ~code:"E005" ~float_ok:false)
        else begin
          (* Exact dual-cone projection: any out-of-cone component is
             zeroed (no tolerance); the clamped vector always yields a
             valid bound, so clamping refutes nothing. *)
          let yq =
            Array.mapi
              (fun r v ->
                 let out =
                   match std.Lp.row_cmp.(r) with
                   | Lp.Le -> v > 0.
                   | Lp.Ge -> v < 0.
                   | Lp.Eq -> false
                 in
                 if out then Q.zero else Q.of_float v)
              cert.Mip.lp_y
          in
          let dq = exact_reduced_costs std yq in
          let base = ref (Q.of_float std.Lp.obj_const) in
          Array.iteri
            (fun r yr ->
               if not (Q.is_zero yr) then
                 base := Q.add !base (Q.mul yr (Q.of_float std.Lp.rhs.(r))))
            yq;
          (* Box contributions; a nonzero exact reduced cost against an
             infinite bound collapses the exact bound to -inf. *)
          let fin = ref !base in
          let small = ref [] and big = ref [] in
          Array.iteri
            (fun j dj ->
               let s = Q.sign dj in
               if s > 0 then begin
                 if Float.is_finite std.Lp.lb.(j) then
                   fin := Q.add !fin (Q.mul dj (Q.of_float std.Lp.lb.(j)))
                 else begin
                   let noise = 1e-7 *. (1. +. Float.abs std.Lp.obj.(j)) in
                   if Q.compare (Q.abs dj) (Q.of_float noise) <= 0 then
                     small := (j, Q.abs dj, noise) :: !small
                   else big := j :: !big
                 end
               end
               else if s < 0 then begin
                 if Float.is_finite std.Lp.ub.(j) then
                   fin := Q.add !fin (Q.mul dj (Q.of_float std.Lp.ub.(j)))
                 else begin
                   let noise = 1e-7 *. (1. +. Float.abs std.Lp.obj.(j)) in
                   if Q.compare (Q.abs dj) (Q.of_float noise) <= 0 then
                     small := (j, Q.abs dj, noise) :: !small
                   else big := j :: !big
                 end
               end)
            dq;
          let collapsed = !small <> [] || !big <> [] in
          let lq = if collapsed then None else Some !fin in
          exact_bound := lq;
          (* Float-layer view of the same bound, for the verdict pairs. *)
          let yc_f, _ = clamp_duals ~tol:options.cone_tol std cert.Mip.lp_y in
          let lbf = lagrangian_bound std yc_f in
          if !big = [] && !small <> [] then begin
            (* The float layer's noise guard kept the bound finite; exactly
               the bound is -inf, so every finite float bound claim rests on
               zeroing these reduced costs. *)
            let wj, wr, wn =
              List.fold_left
                (fun (aj, ar, an) (j, r, n) ->
                   if Q.compare r ar > 0 then (j, r, n) else (aj, ar, an))
                (List.hd !small) (List.tl !small)
            in
            addc
              { claim = "Lagrangian bound"; code = "E009"; float_ok = true;
                verdict = Masked_violation; residual = wr; threshold = wn };
            addf
              (Diagnostic.warning ~code:"E009"
                 "the float Lagrangian bound %g relies on zeroing %d exact \
                  reduced cost(s) against infinite bounds (worst column %d: \
                  |d| = %s <= noise guard %g); the exact bound collapses to \
                  -inf, so the dual bound is not exactly established"
                 lbf (List.length !small) wj (Q.to_short_string wr) wn)
          end
          else if not collapsed then
            addc
              { claim = "Lagrangian bound"; code = "E009";
                float_ok = Float.is_finite lbf; verdict = Exactly_valid;
                residual = Q.zero; threshold = tol };
          (* Weak duality: L(y) must not exceed the exact incumbent. *)
          (match (lq, exact_obj) with
           | Some l, Some o ->
             let claimed = Option.value claimed_obj ~default:(Q.to_float o) in
             let threshold = rel tol claimed in
             let float_ok = not (lbf > claimed +. threshold) in
             value_check ~claim:"weak duality" ~refuted_code:"E005"
               ~masked_code:"E006" ~refuted_sev:Diagnostic.Error
               ~masked_sev:Diagnostic.Warning ~float_ok ~threshold
               (Q.sub l o)
               (fun () ->
                  Printf.sprintf "exact dual bound %s vs exact incumbent %s"
                     (Q.to_short_string l) (Q.to_short_string o))
           | None, Some _ ->
             (* L = -inf: weak duality holds trivially and exactly. *)
             addc
               { claim = "weak duality"; code = "E005"; float_ok = true;
                 verdict = Exactly_valid; residual = Q.zero; threshold = tol }
           | _ -> ());
          (* Agreement with the claimed root LP objective. *)
          (if Float.is_finite cert.Mip.lp_obj then
             match lq with
             | Some l ->
               let threshold = rel tol cert.Mip.lp_obj in
               let diff = Q.sub l (Q.of_float cert.Mip.lp_obj) in
               let float_ok = Float.abs (lbf -. cert.Mip.lp_obj) <= threshold in
               value_check ~claim:"root LP objective" ~refuted_code:"E007"
                 ~masked_code:"E008" ~refuted_sev:Diagnostic.Error
                 ~masked_sev:Diagnostic.Info ~float_ok ~threshold (Q.abs diff)
                 (fun () ->
                    Printf.sprintf "exact Lagrangian bound %s vs claimed %g"
                       (Q.to_short_string l) cert.Mip.lp_obj)
             | None ->
               addc
                 (unchecked ~claim:"root LP objective" ~code:"E007"
                    ~float_ok:(Float.abs (lbf -. cert.Mip.lp_obj)
                               <= rel tol cert.Mip.lp_obj)));
          (* Complementary slackness at the root optimum, exactly. *)
          if
            Array.length cert.Mip.lp_x = std.Lp.ncols
            && Array.for_all Float.is_finite cert.Mip.lp_x
          then begin
            let worst = ref Q.zero and worst_j = ref (-1) in
            let worst_thr = ref tol in
            let n_masked = ref 0 and n_refuted = ref 0 in
            let float_viols = ref 0 in
            let d_f = reduced_costs std cert.Mip.lp_y in
            Array.iteri
              (fun j dj ->
                 let xj = Q.of_float cert.Mip.lp_x.(j) in
                 let lbj = std.Lp.lb.(j) and ubj = std.Lp.ub.(j) in
                 let fixed =
                   Float.is_finite lbj && Float.is_finite ubj && lbj = ubj
                 in
                 if not fixed then begin
                   let at_lower =
                     Float.is_finite lbj
                     && Q.compare xj (Q.of_float lbj) <= 0
                   and at_upper =
                     Float.is_finite ubj
                     && Q.compare xj (Q.of_float ubj) >= 0
                   in
                   let residual =
                     if at_lower && at_upper then Q.zero
                     else if at_lower then Q.max Q.zero (Q.neg dj)
                     else if at_upper then Q.max Q.zero dj
                     else Q.abs dj
                   in
                   let thr = rel tol std.Lp.obj.(j) in
                   (match classify ~threshold:thr residual with
                    | Masked_violation -> incr n_masked
                    | Exactly_refuted -> incr n_refuted
                    | _ -> ());
                   if Q.compare residual !worst > 0 then begin
                     worst := residual;
                     worst_j := j;
                     worst_thr := thr
                   end;
                   (* float layer's verdict on the same column *)
                   let v = cert.Mip.lp_x.(j) in
                   let eps = 1e-6 *. (1. +. Float.abs v) in
                   let bad_f =
                     if ubj -. lbj <= 2. *. eps then false
                     else if v > lbj +. eps && v < ubj -. eps then
                       Float.abs d_f.(j) > thr
                     else if v <= lbj +. eps then d_f.(j) < -.thr
                     else d_f.(j) > thr
                   in
                   if bad_f then incr float_viols
                 end)
              dq;
            let float_ok = !float_viols = 0 in
            let verdict =
              if !n_refuted > 0 then Exactly_refuted
              else if !n_masked > 0 then Masked_violation
              else Exactly_valid
            in
            addc
              { claim = "complementary slackness";
                code = (if verdict = Exactly_refuted then "E012" else "E013");
                float_ok; verdict; residual = !worst; threshold = !worst_thr };
            if !n_refuted > 0 then
              addf
                (Diagnostic.warning ~code:"E012"
                   "complementary slackness exactly violated for %d \
                    column(s) at the root optimum (worst: column %d, exact \
                    residual %s exceeds tolerance %g)"
                   !n_refuted !worst_j
                   (Q.to_short_string !worst)
                   !worst_thr)
            else if !n_masked > 0 then
              addf
                (Diagnostic.info ~code:"E013"
                   "%d tolerance-masked complementary-slackness residual(s) \
                    at the root optimum (worst: column %d, exact residual %s \
                    within tolerance %g)"
                   !n_masked !worst_j
                   (Q.to_short_string !worst)
                   !worst_thr)
          end
        end
    in

    (* Bound bookkeeping: support minimum, outcome bound, reported gap. *)
    let bounds ~exact_obj ~outcome_bound_min =
      (match adt.Mip.proven_bound with
       | Some pb when Float.is_finite pb ->
         if Array.length adt.Mip.bound_support > 1 then
           addf
             (Diagnostic.info ~code:"E014"
                "the proven bound aggregates %d search-tree node bounds; \
                 the exact audit re-verifies their bookkeeping, not the \
                 tree search that derived them"
                (Array.length adt.Mip.bound_support));
         (if Array.length adt.Mip.bound_support > 0 then begin
            let m =
              Array.fold_left Float.min infinity adt.Mip.bound_support
            in
            if Float.is_finite m then begin
              let threshold = rel tol m in
              value_check ~claim:"proven bound support" ~refuted_code:"E005"
                ~masked_code:"E006" ~refuted_sev:Diagnostic.Error
                ~masked_sev:Diagnostic.Warning
                ~float_ok:(Float.abs (pb -. m) <= threshold)
                ~threshold
                (Q.abs (Q.sub (Q.of_float pb) (Q.of_float m)))
                (fun () ->
                   Printf.sprintf
                      "claimed bound %g vs minimum %g of %d node bounds" pb m
                      (Array.length adt.Mip.bound_support))
            end
          end);
         (match outcome_bound_min with
          | Some cb when Float.is_finite cb ->
            let threshold = rel tol pb in
            value_check ~claim:"outcome bound" ~refuted_code:"E005"
              ~masked_code:"E006" ~refuted_sev:Diagnostic.Error
              ~masked_sev:Diagnostic.Warning
              ~float_ok:(Float.abs (cb -. pb) <= threshold)
              ~threshold
              (Q.abs (Q.sub (Q.of_float cb) (Q.of_float pb)))
              (fun () ->
                 Printf.sprintf "outcome bound %g vs audited bound %g" cb pb)
          | _ -> ())
       | _ -> ());
      match (exact_obj, adt.Mip.proven_bound) with
      | Some o, Some pb when Float.is_finite pb ->
        let g =
          Q.max Q.zero
            (Q.div (Q.sub o (Q.of_float pb)) (Q.max Q.one (Q.abs o)))
        in
        if Float.is_finite stats.Mip.gap_achieved then begin
          let o_f = Q.to_float o in
          let g_f =
            Float.max 0. ((o_f -. pb) /. Float.max 1. (Float.abs o_f))
          in
          value_check ~claim:"reported gap" ~refuted_code:"E005"
            ~masked_code:"E006" ~refuted_sev:Diagnostic.Error
            ~masked_sev:Diagnostic.Warning
            ~float_ok:(Float.abs (stats.Mip.gap_achieved -. g_f) <= tol)
            ~threshold:tol
            (Q.abs (Q.sub (Q.of_float stats.Mip.gap_achieved) g))
            (fun () ->
               Printf.sprintf "reported gap %g vs exact recomputation"
                  stats.Mip.gap_achieved)
        end;
        Some g
      | _ -> None
    in

    let optimality g =
      match g with
      | None ->
        addc (unchecked ~claim:"optimality gap" ~code:"E015" ~float_ok:true)
      | Some g ->
        let residual = Q.sub g (Q.of_float gap) in
        let verdict = classify ~threshold:tol residual in
        let float_ok = Q.to_float g <= gap +. tol in
        addc
          { claim = "optimality gap"; code = "E015"; float_ok; verdict;
            residual = Q.max Q.zero residual; threshold = tol };
        (match verdict with
         | Exactly_refuted ->
           addf
             (Diagnostic.error ~code:"E015"
                "optimality exactly refuted: the exact gap exceeds the gap \
                 tolerance %g by %s (float slack tolerance %g)"
                gap
                (Q.to_short_string residual)
                tol)
         | Masked_violation ->
           addf
             (Diagnostic.warning ~code:"E015"
                "optimality claim is tolerance-masked: the exact gap \
                 exceeds the gap tolerance %g by %s (within the float slack \
                 %g)"
                gap
                (Q.to_short_string residual)
                tol)
         | _ -> ())
    in

    (* Farkas infeasibility, with zero tolerance. *)
    let farkas ray =
      let float_ok = farkas_proves_infeasible ~tol std ray in
      if
        Array.length ray <> std.Lp.nrows
        || not (Array.for_all Float.is_finite ray)
        || not (Array.exists (fun v -> v <> 0.) ray)
      then begin
        addc
          { claim = "Farkas infeasibility"; code = "E010"; float_ok;
            verdict = Exactly_refuted; residual = Q.zero; threshold = tol };
        addf
          (Diagnostic.error ~code:"E010"
             "Farkas multiplier malformed or zero: the infeasibility claim \
              is exactly refuted")
      end
      else begin
        let yq = Array.map Q.of_float ray in
        let t = Array.make std.Lp.ncols Q.zero in
        for r = 0 to std.Lp.nrows - 1 do
          if not (Q.is_zero yq.(r)) then
            Array.iteri
              (fun k j ->
                 t.(j) <-
                   Q.add t.(j)
                     (Q.mul yq.(r) (Q.of_float std.Lp.row_val.(r).(k))))
              std.Lp.row_idx.(r)
        done;
        let mul_bound tj b =
          if b = infinity then (if Q.sign tj > 0 then Pos_inf else Neg_inf)
          else if b = neg_infinity then
            (if Q.sign tj > 0 then Neg_inf else Pos_inf)
          else Fin (Q.mul tj (Q.of_float b))
        in
        let fmax = ref (Fin Q.zero) and fmin = ref (Fin Q.zero) in
        let yrhs = ref Q.zero and scale = ref 1. in
        Array.iteri
          (fun j tj ->
             let s = Q.sign tj in
             if s > 0 then begin
               fmax := ext_add_term !fmax (mul_bound tj std.Lp.ub.(j));
               fmin := ext_add_term !fmin (mul_bound tj std.Lp.lb.(j));
               scale := !scale +. Float.abs (Q.to_float tj)
             end
             else if s < 0 then begin
               fmax := ext_add_term !fmax (mul_bound tj std.Lp.lb.(j));
               fmin := ext_add_term !fmin (mul_bound tj std.Lp.ub.(j));
               scale := !scale +. Float.abs (Q.to_float tj)
             end)
          t;
        Array.iteri
          (fun r yr ->
             if not (Q.is_zero yq.(r)) then
               yrhs := Q.add !yrhs (Q.mul yq.(r) (Q.of_float std.Lp.rhs.(r)));
             scale := !scale +. Float.abs (yr *. std.Lp.rhs.(r));
             match std.Lp.row_cmp.(r) with
             | Lp.Le ->
               if yr > 0. then fmax := Pos_inf
               else if yr < 0. then fmin := Neg_inf
             | Lp.Ge ->
               if yr > 0. then fmin := Neg_inf
               else if yr < 0. then fmax := Pos_inf
             | Lp.Eq -> ())
          ray;
        let eps = tol *. !scale in
        let above =
          match !fmax with
          | Pos_inf -> None
          | Fin f -> Some (Q.sub !yrhs f)
          | Neg_inf -> Some Q.one
        and below =
          match !fmin with
          | Neg_inf -> None
          | Fin f -> Some (Q.sub f !yrhs)
          | Pos_inf -> Some Q.one
        in
        let margin =
          match (above, below) with
          | Some a, Some b -> Some (Q.max a b)
          | Some a, None -> Some a
          | None, Some b -> Some b
          | None, None -> None
        in
        match margin with
        | Some m when Q.sign m > 0 ->
          addc
            { claim = "Farkas infeasibility"; code = "E011"; float_ok;
              verdict = Exactly_valid; residual = Q.zero; threshold = eps };
          if Q.compare m (Q.of_float eps) <= 0 then
            addf
              (Diagnostic.info ~code:"E011"
                 "Farkas certificate exactly proves infeasibility but its \
                  margin %s is below the float epsilon %g — fragile under \
                  the float checker"
                 (Q.to_short_string m) eps)
        | _ ->
          let depth =
            match margin with
            | Some m -> Q.neg m
            | None -> Q.zero
          in
          addc
            { claim = "Farkas infeasibility"; code = "E010"; float_ok;
              verdict = Exactly_refuted; residual = Q.max Q.zero depth;
              threshold = eps };
          addf
            (Diagnostic.error ~code:"E010"
               "Farkas certificate exactly fails: y'b lies inside the \
                attainable range of y'(Ax+s) by %s%s"
               (Q.to_short_string (Q.max Q.zero depth))
               (if float_ok then
                  " — float certification nevertheless passes \
                   (tolerance-masked refutation)"
                else ""))
      end
    in

    (match outcome with
     | Mip.Optimal sol ->
       let exact_obj, claimed_obj = primal sol in
       dual ~exact_obj ~claimed_obj;
       let g = bounds ~exact_obj ~outcome_bound_min:None in
       optimality g
     | Mip.Feasible (sol, bound) ->
       let exact_obj, claimed_obj = primal sol in
       dual ~exact_obj ~claimed_obj;
       ignore
         (bounds ~exact_obj
            ~outcome_bound_min:(Some (Lp.restore_objective std bound)))
     | Mip.No_incumbent b ->
       dual ~exact_obj:None ~claimed_obj:None;
       ignore
         (bounds ~exact_obj:None
            ~outcome_bound_min:(Option.map (Lp.restore_objective std) b))
     | Mip.Infeasible ->
       (match adt.Mip.farkas with
        | Some ray -> farkas ray
        | None ->
          addc
            (unchecked ~claim:"Farkas infeasibility" ~code:"E010"
               ~float_ok:true))
     | Mip.Unbounded ->
       addc (unchecked ~claim:"unboundedness" ~code:"E010" ~float_ok:true)
     | Mip.Too_large { rows; limit = _ } ->
       let residual = Q.abs (Q.of_int (rows - std.Lp.nrows)) in
       addc
         (make_check ~claim:"size refusal" ~code:"E005"
            ~float_ok:(rows = std.Lp.nrows) ~threshold:0. residual);
       if rows <> std.Lp.nrows then
         addf
           (Diagnostic.error ~code:"E005"
              "exactly refuted size refusal: claims %d rows but the model \
               has %d"
              rows std.Lp.nrows));

    let report =
      {
        checks = List.rev !checks;
        findings = Diagnostic.sort (List.rev !findings);
      }
    in
    let _, masked, _, _ = counts report in
    Obs.count "certify.exact_checks"
      (float_of_int (List.length report.checks));
    if masked > 0 then
      Obs.count "certify.masked_violations" (float_of_int masked);
    report
end
