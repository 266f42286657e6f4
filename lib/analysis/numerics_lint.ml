module D = Diagnostic

let row_ratio_limit = 1e6
let col_ratio_limit = 1e6
let big_m_limit = 1e6
let big_m_rel = 1e4
let near_parallel_tol = 1e-6
let degeneracy_warn_share = 0.5
let degeneracy_info_share = 0.25
let cond_estimate_limit = 1e8
let obj_ratio_limit = 1e9

let is_bad f = Float.is_nan f || Float.abs f = infinity

(* Magnitude range over an array of coefficients, skipping zeros and
   non-finite entries.  Returns (min, max, count of finite nonzeros). *)
let mag_range values =
  let mn = ref infinity and mx = ref 0. and n = ref 0 in
  Array.iter
    (fun v ->
       if (not (is_bad v)) && v <> 0. then begin
         let m = Float.abs v in
         if m < !mn then mn := m;
         if m > !mx then mx := m;
         incr n
       end)
    values;
  (!mn, !mx, !n)

(* N001: rows whose own coefficients span too many orders of magnitude.
   One aggregated finding naming the worst row. *)
let check_row_scaling (std : Lp.std) push =
  let bad = ref 0 and worst = ref (-1) and worst_ratio = ref 0. in
  for r = 0 to std.Lp.nrows - 1 do
    let mn, mx, n = mag_range std.Lp.row_val.(r) in
    if n >= 2 && mx /. mn > row_ratio_limit then begin
      incr bad;
      if mx /. mn > !worst_ratio then begin
        worst_ratio := mx /. mn;
        worst := r
      end
    end
  done;
  if !bad > 0 then
    push
      (D.warning ~code:"N001"
         "%d ill-scaled row(s): in-row coefficient magnitude ratio exceeds \
          %g (worst: row %d, ratio %.3g) — branch-and-bound searches an \
          equilibrated copy; a spread on integer columns, which keep \
          factor 1, needs a reformulation"
         !bad row_ratio_limit !worst !worst_ratio)

(* Column-major view: per column, the list of (row, value) with finite
   nonzero coefficients. *)
let columns (std : Lp.std) =
  let cols = Array.make std.Lp.ncols [] in
  for r = std.Lp.nrows - 1 downto 0 do
    let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
    Array.iteri
      (fun k j ->
         let v = value.(k) in
         if (not (is_bad v)) && v <> 0. then cols.(j) <- (r, v) :: cols.(j))
      idx
  done;
  cols

(* N002: columns whose coefficients span too many orders of magnitude. *)
let check_col_scaling ~vname cols push =
  let bad = ref 0 and worst = ref (-1) and worst_ratio = ref 0. in
  Array.iteri
    (fun j entries ->
       let mn = ref infinity and mx = ref 0. and n = ref 0 in
       List.iter
         (fun (_, v) ->
            let m = Float.abs v in
            if m < !mn then mn := m;
            if m > !mx then mx := m;
            incr n)
         entries;
       if !n >= 2 && !mx /. !mn > col_ratio_limit then begin
         incr bad;
         if !mx /. !mn > !worst_ratio then begin
           worst_ratio := !mx /. !mn;
           worst := j
         end
       end)
    cols;
  if !bad > 0 then
    push
      (D.warning ~code:"N002"
         "%d ill-scaled column(s): in-column coefficient magnitude ratio \
          exceeds %g (worst: %s, ratio %.3g) — branch-and-bound searches \
          an equilibrated copy; an integer column keeps factor 1 and needs \
          a reformulation"
         !bad col_ratio_limit (vname !worst) !worst_ratio)

(* N003: big-M constants — huge both absolutely and relative to the
   median coefficient magnitude of the matrix. *)
let check_big_m (std : Lp.std) push =
  let mags = ref [] in
  for r = 0 to std.Lp.nrows - 1 do
    Array.iter
      (fun v ->
         if (not (is_bad v)) && v <> 0. then mags := Float.abs v :: !mags)
      std.Lp.row_val.(r)
  done;
  let mags = Array.of_list !mags in
  let n = Array.length mags in
  if n > 0 then begin
    Array.sort compare mags;
    let median = mags.(n / 2) in
    let floor_mag = Float.max big_m_limit (median *. big_m_rel) in
    let bad = ref 0 and worst = ref 0. and worst_row = ref (-1) in
    for r = 0 to std.Lp.nrows - 1 do
      Array.iter
        (fun v ->
           if (not (is_bad v)) && Float.abs v >= floor_mag then begin
             incr bad;
             if Float.abs v > !worst then begin
               worst := Float.abs v;
               worst_row := r
             end
           end)
        std.Lp.row_val.(r)
    done;
    if !bad > 0 then
      push
        (D.warning ~code:"N003"
           "%d big-M coefficient(s): magnitude >= %g and %gx the median \
            magnitude %g (worst: %g in row %d) — big-M rows dominate pivot \
            selection and hide the rest of the row"
           !bad big_m_limit big_m_rel median !worst !worst_row)
  end

(* N004: near-parallel row pairs.  Rows are bucketed by support; inside a
   bucket each row is compared against the bucket representative after
   normalizing by the leading coefficient.  Exactly proportional rows are
   Model_lint's M004/M005 territory; here we flag the numerically nasty
   case — almost, but not exactly, proportional. *)
let check_near_parallel (std : Lp.std) push =
  let buckets : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let pairs = ref 0 and example = ref None in
  for r = 0 to std.Lp.nrows - 1 do
    let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
    if Array.length idx >= 2 && not (Array.exists is_bad value)
       && value.(0) <> 0.
    then begin
      let buf = Buffer.create 32 in
      Array.iter (fun j -> Buffer.add_string buf (string_of_int j);
                   Buffer.add_char buf ';') idx;
      let key = Buffer.contents buf in
      match Hashtbl.find_opt buckets key with
      | None -> Hashtbl.add buckets key r
      | Some r0 ->
        let v0 = std.Lp.row_val.(r0) in
        if v0.(0) <> 0. then begin
          let dev = ref 0. in
          Array.iteri
            (fun k v ->
               let a = v /. value.(0) and b = v0.(k) /. v0.(0) in
               let d =
                 Float.abs (a -. b) /. Float.max 1. (Float.abs b)
               in
               if d > !dev then dev := d)
            value;
          if !dev > 0. && !dev <= near_parallel_tol then begin
            incr pairs;
            if !example = None then example := Some (r, r0, !dev)
          end
        end
    end
  done;
  match !example with
  | Some (r, r0, dev) ->
    push
      (D.warning ~code:"N004"
         "%d near-parallel row pair(s): relative deviation <= %g but not \
          exactly proportional (e.g. rows %d and %d, deviation %.3g) — \
          expect tiny pivots"
         !pairs near_parallel_tol r r0 dev)
  | None -> ()

(* N005: duplicate columns — same support, proportional coefficients and
   proportional objective.  Keyed on the lead-normalized column pattern. *)
let check_duplicate_columns ~vname (std : Lp.std) cols push =
  let buckets : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let dups = ref 0 and example = ref None in
  Array.iteri
    (fun j entries ->
       match entries with
       | [] -> ()
       | (_, lead) :: _ ->
         let buf = Buffer.create 64 in
         List.iter
           (fun (r, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%d:%.12g;" r (v /. lead)))
           entries;
         Buffer.add_string buf
           (Printf.sprintf "o:%.12g;i:%b" (std.Lp.obj.(j) /. lead)
              std.Lp.integer.(j));
         let key = Buffer.contents buf in
         (match Hashtbl.find_opt buckets key with
          | None -> Hashtbl.add buckets key j
          | Some j0 ->
            incr dups;
            if !example = None then example := Some (j, j0)))
    cols;
  match !example with
  | Some (j, j0) ->
    push
      (D.warning ~code:"N005"
         "%d duplicate column(s): proportional constraint and objective \
          coefficients (e.g. %s duplicates %s) — merging them shrinks the \
          model and removes dual degeneracy"
         !dups (vname j) (vname j0))
  | None -> ()

(* N006: predicted primal degeneracy at the root vertex — a high share of
   zero right-hand sides means many basic variables sit exactly at zero,
   and the dual simplex stalls on degenerate pivots. *)
let check_degeneracy (std : Lp.std) push =
  if std.Lp.nrows > 0 then begin
    let zero = ref 0 in
    for r = 0 to std.Lp.nrows - 1 do
      if std.Lp.rhs.(r) = 0. then incr zero
    done;
    let share = float_of_int !zero /. float_of_int std.Lp.nrows in
    if share > degeneracy_warn_share then
      push
        (D.warning ~code:"N006"
           "predicted root-vertex degeneracy: %d of %d rows (%.0f%%) have a \
            zero right-hand side — expect long runs of degenerate pivots"
           !zero std.Lp.nrows (100. *. share))
    else if share > degeneracy_info_share then
      push
        (D.info ~code:"N006"
           "%d of %d rows (%.0f%%) have a zero right-hand side — some \
            degeneracy at the root vertex is likely"
           !zero std.Lp.nrows (100. *. share))
  end

(* N007: basis condition estimate.  A cheap proxy: the ratio of the
   largest to the smallest column 2-norm bounds (from below) the
   condition number of any basis drawing on both columns. *)
let check_condition cols push =
  let mn = ref infinity and mx = ref 0. and n = ref 0 in
  Array.iter
    (fun entries ->
       if entries <> [] then begin
         let s =
           List.fold_left (fun acc (_, v) -> acc +. (v *. v)) 0. entries
         in
         let norm = sqrt s in
         if norm < !mn then mn := norm;
         if norm > !mx then mx := norm;
         incr n
       end)
    cols;
  if !n >= 2 then begin
    let est = !mx /. !mn in
    if est > cond_estimate_limit then
      push
        (D.warning ~code:"N007"
           "basis condition estimate %.3g (column 2-norms span %.3g .. %.3g, \
            limit %g) — refactorization drift likely on this model; \
            branch-and-bound searches an equilibrated copy"
           est !mn !mx cond_estimate_limit)
    else
      push
        (D.info ~code:"N007"
           "basis condition estimate %.3g (column 2-norms span %.3g .. %.3g)"
           est !mn !mx)
  end

(* N008: objective coefficient range. *)
let check_objective (std : Lp.std) push =
  let mn, mx, n = mag_range std.Lp.obj in
  if n >= 2 && mx /. mn > obj_ratio_limit then
    push
      (D.warning ~code:"N008"
         "objective coefficient magnitudes span %g .. %g (ratio %.3g > %g) — \
          optimality tolerances lose meaning across that range"
         mn mx (mx /. mn) obj_ratio_limit)

let lint ?var_name (std : Lp.std) =
  let vname =
    match var_name with Some f -> f | None -> Printf.sprintf "x%d"
  in
  let out = ref [] in
  let push d = out := d :: !out in
  let cols = columns std in
  check_row_scaling std push;
  check_col_scaling ~vname cols push;
  check_big_m std push;
  check_near_parallel std push;
  check_duplicate_columns ~vname std cols push;
  check_degeneracy std push;
  check_condition cols push;
  check_objective std push;
  List.rev !out

let runtime_feedback ~iterations ~refactorizations ~drift_rebuilds
    ~recovery_rebuilds ~max_updates =
  let out =
    [ D.info ~code:"N101"
        "root LP solved in %d iteration(s), %d factorization(s), at most %d \
         basis update(s) on one factorization"
        iterations refactorizations max_updates ]
  in
  if drift_rebuilds > 0 || recovery_rebuilds > 0 then
    out
    @ [ D.warning ~code:"N102"
          "numerical stress observed at runtime: %d drift-triggered and %d \
           recovery refactorization(s) — the static N-code predictions are \
           confirmed; equilibration did not remove them, so reformulate the \
           model"
          drift_rebuilds recovery_rebuilds ]
  else out
