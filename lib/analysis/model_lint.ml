module D = Diagnostic

let cond_ratio_limit = 1e9

let is_bad f = Float.is_nan f || Float.abs f = infinity

(* Interval a row imposes on its (normalized) linear form. *)
let row_interval cmp rhs =
  match cmp with
  | Lp.Le -> (neg_infinity, rhs)
  | Lp.Ge -> (rhs, infinity)
  | Lp.Eq -> (rhs, rhs)

let flip = function Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq

let fractional b =
  Float.abs b <> infinity && Float.abs (b -. Float.round b) > 1e-9

let check_vars ~vname (std : Lp.std) push =
  for j = 0 to std.Lp.ncols - 1 do
    let lb = std.Lp.lb.(j) and ub = std.Lp.ub.(j) in
    if Float.is_nan lb || Float.is_nan ub || lb = infinity || ub = neg_infinity
    then
      push
        (D.error ~code:"M012" "variable %s: non-finite bounds [%g, %g]"
           (vname j) lb ub)
    else if lb > ub then
      push
        (D.error ~code:"M001"
           "variable %s: lower bound %g exceeds upper bound %g (infeasible)"
           (vname j) lb ub)
    else begin
      if lb = ub then
        push (D.info ~code:"M011" "variable %s: fixed at %g by its bounds" (vname j) lb);
      if std.Lp.integer.(j) then begin
        if fractional lb then
          push
            (D.warning ~code:"M009"
               "integer variable %s: fractional %s bound %g" (vname j) "lower"
               lb);
        if fractional ub then
          push
            (D.warning ~code:"M009"
               "integer variable %s: fractional %s bound %g" (vname j) "upper"
               ub)
      end
    end;
    if is_bad std.Lp.obj.(j) then
      push
        (D.error ~code:"M012" "variable %s: non-finite objective coefficient %g"
           (vname j) std.Lp.obj.(j))
  done;
  if is_bad std.Lp.obj_const then
    push (D.error ~code:"M012" "non-finite objective constant %g" std.Lp.obj_const)

let check_rows ~vname (std : Lp.std) push =
  (* per-column usage for M008, coefficient extremes for M010 *)
  let used = Array.make std.Lp.ncols false in
  let min_mag = ref infinity and max_mag = ref 0. in
  for r = 0 to std.Lp.nrows - 1 do
    let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
    let rhs = std.Lp.rhs.(r) and cmp = std.Lp.row_cmp.(r) in
    let bad_data = ref (Float.is_nan rhs || Float.abs rhs = infinity) in
    if !bad_data then
      push (D.error ~code:"M012" "row %d: non-finite right-hand side %g" r rhs);
    for k = 0 to Array.length value - 1 do
      let v = value.(k) in
      used.(idx.(k)) <- true;
      if is_bad v then begin
        bad_data := true;
        push
          (D.error ~code:"M012" "row %d: non-finite coefficient %g on %s" r v
             (vname idx.(k)))
      end
      else if v <> 0. then begin
        let m = Float.abs v in
        if m < !min_mag then min_mag := m;
        if m > !max_mag then max_mag := m
      end
    done;
    if Array.length idx = 0 && not !bad_data then begin
      let ok =
        match cmp with
        | Lp.Le -> rhs >= -1e-9
        | Lp.Ge -> rhs <= 1e-9
        | Lp.Eq -> Float.abs rhs <= 1e-9
      in
      let scmp = match cmp with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=" in
      if ok then
        push
          (D.warning ~code:"M003" "row %d: empty row 0 %s %g is trivially satisfied"
             r scmp rhs)
      else
        push
          (D.error ~code:"M002" "row %d: empty row 0 %s %g cannot be satisfied" r
             scmp rhs)
    end
  done;
  Array.iteri
    (fun j in_row ->
       if (not in_row) && std.Lp.obj.(j) = 0. then
         push
           (D.warning ~code:"M008"
              "variable %s: appears in no constraint and not in the objective"
              (vname j)))
    used;
  if !max_mag /. !min_mag > cond_ratio_limit then
    push
      (D.warning ~code:"M010"
         "ill-conditioned matrix: coefficient magnitudes span %g .. %g \
          (ratio %.3g > %g)"
         !min_mag !max_mag (!max_mag /. !min_mag) cond_ratio_limit)

(* Interval (activity-bound) propagation per row: provably infeasible or
   provably redundant rows.  Rows touching a variable with crossed or
   non-finite bounds, or carrying non-finite data, are skipped — those
   already have their own findings. *)
let check_activity (std : Lp.std) push =
  for r = 0 to std.Lp.nrows - 1 do
    let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
    let rhs = std.Lp.rhs.(r) in
    if Array.length idx > 0 && not (Float.is_nan rhs || Float.abs rhs = infinity)
    then begin
      let skip = ref false in
      let minact = ref 0. and maxact = ref 0. in
      for k = 0 to Array.length value - 1 do
        let v = value.(k) and j = idx.(k) in
        let lo = std.Lp.lb.(j) and hi = std.Lp.ub.(j) in
        if is_bad v || Float.is_nan lo || Float.is_nan hi || lo > hi then
          skip := true
        else if v > 0. then begin
          minact := !minact +. (v *. lo);
          maxact := !maxact +. (v *. hi)
        end
        else if v < 0. then begin
          minact := !minact +. (v *. hi);
          maxact := !maxact +. (v *. lo)
        end
      done;
      if not !skip then begin
        let ftol = 1e-7 *. (1. +. Float.abs rhs) in
        match std.Lp.row_cmp.(r) with
        | Lp.Le ->
          if !minact > rhs +. ftol then
            push
              (D.error ~code:"M006"
                 "row %d: minimum activity %g already exceeds rhs %g (<=)" r
                 !minact rhs)
          else if !maxact <= rhs -. ftol then
            push
              (D.warning ~code:"M007"
                 "row %d: maximum activity %g never reaches rhs %g (<= is \
                  redundant)"
                 r !maxact rhs)
        | Lp.Ge ->
          if !maxact < rhs -. ftol then
            push
              (D.error ~code:"M006"
                 "row %d: maximum activity %g cannot reach rhs %g (>=)" r !maxact
                 rhs)
          else if !minact >= rhs +. ftol then
            push
              (D.warning ~code:"M007"
                 "row %d: minimum activity %g already exceeds rhs %g (>= is \
                  redundant)"
                 r !minact rhs)
        | Lp.Eq ->
          if !minact > rhs +. ftol || !maxact < rhs -. ftol then
            push
              (D.error ~code:"M006"
                 "row %d: activity range [%g, %g] excludes rhs %g (=)" r !minact
                 !maxact rhs)
      end
    end
  done

(* Rows that can take part in the parallel-row check: a nonempty support
   with finite coefficients, a leading coefficient to normalize by and a
   right-hand side that is a number. *)
let parallel_candidate (std : Lp.std) r =
  let value = std.Lp.row_val.(r) in
  let finite = ref true in
  for k = 0 to Array.length value - 1 do
    if is_bad value.(k) then finite := false
  done;
  Array.length std.Lp.row_idx.(r) > 0
  && !finite
  && (not (Float.is_nan std.Lp.rhs.(r)))
  && value.(0) <> 0.

(* Byte [r] of the result is set when another candidate row has exactly
   row [r]'s support.  Rows are chained by a hash of their support, newest
   first, so the first equal support on a chain is the latest row with it,
   which was itself matched against the rows before it: stopping there
   marks every repeat. *)
let shared_supports (std : Lp.std) =
  let m = std.Lp.nrows in
  let mask =
    let rec pow2 k = if k >= m then k else pow2 (2 * k) in
    pow2 1 - 1
  in
  let head = Array.make (mask + 1) (-1) and next = Array.make m (-1) in
  let shared = Bytes.make m '\000' in
  for r = 0 to m - 1 do
    if parallel_candidate std r then begin
      let idx = std.Lp.row_idx.(r) in
      let h = ref (Array.length idx) in
      for k = 0 to Array.length idx - 1 do
        h := (!h * 0x9E3779B1) + idx.(k)
      done;
      let b = (!h lxor (!h lsr 29)) land mask in
      let r' = ref head.(b) in
      while !r' >= 0 do
        if std.Lp.row_idx.(!r') = idx then begin
          Bytes.set shared r '\001';
          Bytes.set shared !r' '\001';
          r' := -1
        end
        else r' := next.(!r')
      done;
      next.(r) <- head.(b);
      head.(b) <- r
    end
  done;
  shared

(* Duplicate/parallel rows: bucket rows by their support and
   leading-coefficient-normalized coefficient vector (to 12 significant
   digits); rows landing in the same bucket are proportional.  The bucket
   key spells out the support, so only rows whose support repeats can
   share one: the keys are built for those rows alone.  Each bucket tracks
   the running intersection of the intervals its rows impose on the common
   linear form: an empty intersection is a contradiction (M005); a row
   whose interval contains the running intersection adds nothing (M004). *)
let check_parallel (std : Lp.std) push =
  let shared = shared_supports std in
  let buckets : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  for r = 0 to std.Lp.nrows - 1 do
    if Bytes.get shared r = '\001' then begin
      let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
      let lead = value.(0) in
      let buf = Buffer.create 64 in
      Array.iteri
        (fun k v ->
           Buffer.add_string buf
             (Printf.sprintf "%d:%.12g;" idx.(k) (v /. lead)))
        value;
      let key = Buffer.contents buf in
      let cmp =
        if lead > 0. then std.Lp.row_cmp.(r) else flip std.Lp.row_cmp.(r)
      in
      let lo, hi = row_interval cmp (std.Lp.rhs.(r) /. lead) in
      match Hashtbl.find_opt buckets key with
      | None -> Hashtbl.add buckets key (ref r, ref lo, ref hi)
      | Some (first, cur_lo, cur_hi) ->
        let tol = 1e-9 *. (1. +. Float.abs std.Lp.rhs.(r)) in
        if lo > !cur_hi +. tol || hi < !cur_lo -. tol then
          push
            (D.error ~code:"M005"
               "row %d: parallel to row %d but mutually exclusive with it" r
               !first)
        else if lo <= !cur_lo +. tol && hi >= !cur_hi -. tol then
          push
            (D.warning ~code:"M004"
               "row %d: duplicate/parallel of row %d (redundant)" r !first)
        else begin
          cur_lo := Float.max !cur_lo lo;
          cur_hi := Float.min !cur_hi hi
        end
    end
  done

let lint ?var_name (std : Lp.std) =
  let vname =
    match var_name with Some f -> f | None -> Printf.sprintf "x%d"
  in
  let out = ref [] in
  let push d = out := d :: !out in
  check_vars ~vname std push;
  check_rows ~vname std push;
  check_activity std push;
  check_parallel std push;
  List.rev !out

let lint_model m = lint ~var_name:(Lp.var_name m) (Lp.standardize m)

let assert_clean ?var_name std =
  let ds = lint ?var_name std in
  match D.errors ds with
  | [] -> List.filter (fun d -> not (D.is_error d)) ds
  | errs -> raise (D.Errors errs)
