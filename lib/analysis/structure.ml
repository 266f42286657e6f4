module D = Diagnostic

type block = { b_rows : int; b_cols : int; b_nnz : int }

type profile = {
  p_nrows : int;
  p_ncols : int;
  p_nnz : int;
  p_density : float;
  p_max_row_nnz : int;
  p_bandwidth : int;
  p_avg_bandwidth : float;
  p_blocks : block list;
  p_fill_in : int option;
  p_fill_capped : bool;
  p_orbits : int list;
}

let fill_in_caps = (20_000, 1_000_000)
let dense_density_limit = 0.25
let fill_ratio_limit = 10.0

(* Color refinement is skipped beyond this many nonzeros. *)
let orbit_nnz_cap = 500_000

let is_bad f = Float.is_nan f || Float.abs f = infinity

(* {1 Block decomposition: union-find over the row/column bipartite graph} *)

let uf_find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  (* path compression *)
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(ra) <- rb

let blocks (std : Lp.std) =
  let m = std.Lp.nrows and n = std.Lp.ncols in
  (* nodes: rows are 0..m-1, column j is m+j *)
  let parent = Array.init (m + n) (fun i -> i) in
  for r = 0 to m - 1 do
    Array.iteri
      (fun k j ->
         if (not (is_bad std.Lp.row_val.(r).(k)))
            && std.Lp.row_val.(r).(k) <> 0.
         then uf_union parent r (m + j))
      std.Lp.row_idx.(r)
  done;
  let tbl : (int, block ref) Hashtbl.t = Hashtbl.create 16 in
  let bump root f =
    match Hashtbl.find_opt tbl root with
    | Some b -> b := f !b
    | None -> Hashtbl.add tbl root (ref (f { b_rows = 0; b_cols = 0; b_nnz = 0 }))
  in
  for r = 0 to m - 1 do
    let nnz =
      Array.fold_left
        (fun acc v -> if (not (is_bad v)) && v <> 0. then acc + 1 else acc)
        0 std.Lp.row_val.(r)
    in
    if nnz > 0 then
      bump (uf_find parent r) (fun b ->
          { b with b_rows = b.b_rows + 1; b_nnz = b.b_nnz + nnz })
  done;
  for j = 0 to n - 1 do
    let root = uf_find parent (m + j) in
    if root <> m + j || Hashtbl.mem tbl root then
      (* column touched by at least one row, or root of its own block *)
      if Hashtbl.mem tbl root then
        bump root (fun b -> { b with b_cols = b.b_cols + 1 })
  done;
  Hashtbl.fold (fun _ b acc -> !b :: acc) tbl []
  |> List.sort (fun a b ->
         compare (b.b_rows + b.b_cols, b.b_nnz) (a.b_rows + a.b_cols, a.b_nnz))

(* {1 Markowitz-style symbolic fill-in}

   Right-looking symbolic LU on the nonzero pattern with approximate
   minimum-degree pivoting (min column count, then min row count).  Row
   patterns are bitsets over columns; a mask of still-active columns keeps
   eliminated columns out of unions and counts.  Fill-in is the number of
   pattern bits gained over the whole elimination. *)

let bit_index b =
  (* index of the single set bit in [b] *)
  let i = ref 0 and b = ref b in
  while !b <> 1 do
    b := !b lsr 1;
    incr i
  done;
  !i

let fill_estimate (std : Lp.std) ~nnz =
  let m = std.Lp.nrows and n = std.Lp.ncols in
  let max_rows, max_nnz = fill_in_caps in
  if m = 0 || n = 0 || m > max_rows || nnz > max_nnz then (None, false)
  else begin
    let width = (n + 62) / 63 in
    let bits = Array.init m (fun _ -> Array.make width 0) in
    let row_cnt = Array.make m 0 in
    let col_cnt = Array.make n 0 in
    let col_rows = Array.make n [] in
    let mask = Array.make width 0 in
    for j = 0 to n - 1 do
      mask.(j / 63) <- mask.(j / 63) lor (1 lsl (j mod 63))
    done;
    for r = 0 to m - 1 do
      Array.iteri
        (fun k j ->
           let v = std.Lp.row_val.(r).(k) in
           if (not (is_bad v)) && v <> 0. then begin
             let w = j / 63 and b = 1 lsl (j mod 63) in
             if bits.(r).(w) land b = 0 then begin
               bits.(r).(w) <- bits.(r).(w) lor b;
               row_cnt.(r) <- row_cnt.(r) + 1;
               col_cnt.(j) <- col_cnt.(j) + 1;
               col_rows.(j) <- r :: col_rows.(j)
             end
           end)
        std.Lp.row_idx.(r)
    done;
    let active_row = Array.make m true in
    let col_active j = mask.(j / 63) land (1 lsl (j mod 63)) <> 0 in
    let fill = ref 0 and work = ref 0 and capped = ref false in
    let work_cap = 30_000_000 in
    (try
       for _step = 1 to min m n do
         if !work > work_cap then begin
           capped := true;
           raise Exit
         end;
         let bj = ref (-1) and bc = ref max_int in
         for j = 0 to n - 1 do
           if col_active j && col_cnt.(j) > 0 && col_cnt.(j) < !bc then begin
             bc := col_cnt.(j);
             bj := j
           end
         done;
         if !bj < 0 then raise Exit;
         let j = !bj in
         let wj = j / 63 and mj = 1 lsl (j mod 63) in
         let rows =
           List.filter
             (fun r -> active_row.(r) && bits.(r).(wj) land mj <> 0)
             col_rows.(j)
         in
         mask.(wj) <- mask.(wj) land lnot mj;
         col_cnt.(j) <- 0;
         match rows with
         | [] -> ()
         | r0 :: _ ->
           let i =
             List.fold_left
               (fun acc r -> if row_cnt.(r) < row_cnt.(acc) then r else acc)
               r0 rows
           in
           List.iter (fun r -> row_cnt.(r) <- row_cnt.(r) - 1) rows;
           let bi = bits.(i) in
           for w = 0 to width - 1 do
             let x = ref (bi.(w) land mask.(w)) in
             while !x <> 0 do
               let b = !x land (- !x) in
               x := !x land (!x - 1);
               col_cnt.((w * 63) + bit_index b) <-
                 col_cnt.((w * 63) + bit_index b) - 1
             done
           done;
           active_row.(i) <- false;
           List.iter
             (fun r ->
                if r <> i then begin
                  let br = bits.(r) in
                  work := !work + width;
                  for w = 0 to width - 1 do
                    let gained = bi.(w) land lnot br.(w) land mask.(w) in
                    if gained <> 0 then begin
                      br.(w) <- br.(w) lor gained;
                      let x = ref gained in
                      while !x <> 0 do
                        let b = !x land (- !x) in
                        x := !x land (!x - 1);
                        let c = (w * 63) + bit_index b in
                        col_cnt.(c) <- col_cnt.(c) + 1;
                        col_rows.(c) <- r :: col_rows.(c);
                        row_cnt.(r) <- row_cnt.(r) + 1;
                        incr fill
                      done
                    end
                  done
                end)
             rows
       done
     with Exit -> ());
    (Some !fill, !capped)
  end

(* {1 Symmetry orbits: color refinement on the bipartite graph}

   Columns start colored by (bounds, integrality, objective); rows by
   (sense, rhs).  Each round recolors every node by its old color plus
   the sorted multiset of (coefficient, neighbour color) edge labels —
   one step of Weisfeiler–Leman refinement.  The stable coloring groups
   columns that no local invariant can tell apart: candidate orbits. *)

let orbits (std : Lp.std) ~nnz =
  let m = std.Lp.nrows and n = std.Lp.ncols in
  if nnz > orbit_nnz_cap || n = 0 then []
  else begin
    let var_adj : (int * float) list array = Array.make n [] in
    let row_adj : (int * float) list array = Array.make m [] in
    for r = 0 to m - 1 do
      Array.iteri
        (fun k j ->
           let v = std.Lp.row_val.(r).(k) in
           if (not (is_bad v)) && v <> 0. then begin
             var_adj.(j) <- (r, v) :: var_adj.(j);
             row_adj.(r) <- (j, v) :: row_adj.(r)
           end)
        std.Lp.row_idx.(r)
    done;
    let intern tbl next key =
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.add tbl key c;
        c
    in
    let next = ref 0 in
    let init_tbl = Hashtbl.create 64 in
    let vcol =
      Array.init n (fun j ->
          intern init_tbl next
            (Printf.sprintf "v%.12g;%.12g;%b;%.12g" std.Lp.lb.(j)
               std.Lp.ub.(j) std.Lp.integer.(j) std.Lp.obj.(j)))
    in
    let rcol =
      Array.init m (fun r ->
          let s =
            match std.Lp.row_cmp.(r) with
            | Lp.Le -> "<"
            | Lp.Ge -> ">"
            | Lp.Eq -> "="
          in
          intern init_tbl next (Printf.sprintf "r%s%.12g" s std.Lp.rhs.(r)))
    in
    let signature old_color neigh colors =
      let labels =
        List.map (fun (i, v) -> (v, colors.(i))) neigh
        |> List.sort compare
      in
      let buf = Buffer.create 64 in
      Buffer.add_string buf (string_of_int old_color);
      List.iter
        (fun (v, c) ->
           Buffer.add_string buf (Printf.sprintf ";%.12g:%d" v c))
        labels;
      Buffer.contents buf
    in
    let distinct = ref (-1) in
    (try
       for _round = 1 to 64 do
         let tbl = Hashtbl.create 256 in
         let next = ref 0 in
         let vcol' =
           Array.init n (fun j ->
               intern tbl next ("v" ^ signature vcol.(j) var_adj.(j) rcol))
         in
         let rcol' =
           Array.init m (fun r ->
               intern tbl next ("r" ^ signature rcol.(r) row_adj.(r) vcol))
         in
         Array.blit vcol' 0 vcol 0 n;
         Array.blit rcol' 0 rcol 0 m;
         if !next = !distinct then raise Exit;
         distinct := !next
       done
     with Exit -> ());
    (* group integer columns by stable color *)
    let groups : (int, int) Hashtbl.t = Hashtbl.create 64 in
    for j = 0 to n - 1 do
      if std.Lp.integer.(j) then
        Hashtbl.replace groups vcol.(j)
          (1 + Option.value ~default:0 (Hashtbl.find_opt groups vcol.(j)))
    done;
    Hashtbl.fold (fun _ sz acc -> if sz >= 2 then sz :: acc else acc) groups []
    |> List.sort (fun a b -> compare b a)
  end

(* {1 Profile assembly and diagnostics} *)

let profile (std : Lp.std) =
  let m = std.Lp.nrows and n = std.Lp.ncols in
  let nnz = ref 0 and max_row = ref 0 in
  let band = ref 0 and band_sum = ref 0 and band_rows = ref 0 in
  for r = 0 to m - 1 do
    let idx = std.Lp.row_idx.(r) and value = std.Lp.row_val.(r) in
    let cnt = ref 0 and lo = ref max_int and hi = ref (-1) in
    Array.iteri
      (fun k j ->
         if (not (is_bad value.(k))) && value.(k) <> 0. then begin
           incr cnt;
           if j < !lo then lo := j;
           if j > !hi then hi := j
         end)
      idx;
    nnz := !nnz + !cnt;
    if !cnt > !max_row then max_row := !cnt;
    if !cnt > 0 then begin
      let span = !hi - !lo in
      if span > !band then band := span;
      band_sum := !band_sum + span;
      incr band_rows
    end
  done;
  let density =
    if m = 0 || n = 0 then 0.
    else float_of_int !nnz /. (float_of_int m *. float_of_int n)
  in
  let fill, capped = fill_estimate std ~nnz:!nnz in
  {
    p_nrows = m;
    p_ncols = n;
    p_nnz = !nnz;
    p_density = density;
    p_max_row_nnz = !max_row;
    p_bandwidth = !band;
    p_avg_bandwidth =
      (if !band_rows = 0 then 0.
       else float_of_int !band_sum /. float_of_int !band_rows);
    p_blocks = blocks std;
    p_fill_in = fill;
    p_fill_capped = capped;
    p_orbits = orbits std ~nnz:!nnz;
  }

let lint_profile p =
  let out = ref [] in
  let push d = out := d :: !out in
  let cells = p.p_nrows * p.p_ncols in
  if p.p_density > dense_density_limit && cells >= 10_000 then
    push
      (D.warning ~code:"S001"
         "dense constraint matrix: %d x %d with %d nonzeros (density %.1f%%) \
          — sparse kernels cannot pay off at this density"
         p.p_nrows p.p_ncols p.p_nnz (100. *. p.p_density))
  else
    push
      (D.info ~code:"S001"
         "constraint matrix %d x %d: %d nonzeros, density %.2f%%, max row \
          nnz %d"
         p.p_nrows p.p_ncols p.p_nnz (100. *. p.p_density) p.p_max_row_nnz);
  if p.p_nnz > 0 then
    push
      (D.info ~code:"S002"
         "bandwidth: max column-index span %d, mean %.1f (matrix has %d \
          columns)"
         p.p_bandwidth p.p_avg_bandwidth p.p_ncols);
  (match p.p_blocks with
   | b :: (_ :: _ as rest) ->
     push
       (D.info ~code:"S003"
          "decomposes into %d independent blocks (largest %d rows x %d \
           cols) — the subproblems are separable"
          (1 + List.length rest) b.b_rows b.b_cols)
   | _ -> ());
  (match p.p_fill_in with
   | None ->
     let max_rows, max_nnz = fill_in_caps in
     push
       (D.info ~code:"S004"
          "fill-in estimate skipped: matrix exceeds the simulation caps \
           (%d rows / %d nonzeros)"
          max_rows max_nnz)
   | Some f ->
     let ratio = float_of_int f /. float_of_int (max 1 p.p_nnz) in
     let bound = if p.p_fill_capped then ">= " else "" in
     if ratio > fill_ratio_limit then
       push
         (D.warning ~code:"S004"
            "heavy fill-in predicted: %s%d new nonzeros (%.1fx the %d \
             originals) under Markowitz pivoting — a sparse LU needs a \
             better ordering to pay off"
            bound f ratio p.p_nnz)
     else
       push
         (D.info ~code:"S004"
            "Markowitz fill-in estimate: %s%d new nonzeros (%.2fx the %d \
             originals) — sparse LU viable"
            bound f ratio p.p_nnz));
  (match p.p_orbits with
   | [] -> ()
   | largest :: _ as orbs ->
     let covered = List.fold_left ( + ) 0 orbs in
     push
       (D.warning ~code:"S005"
          "candidate symmetry: %d orbit(s) of interchangeable integer \
           columns (largest %d, covering %d columns) — branch-and-bound \
           explores permuted duplicates (the QP solver already pins site \
           symmetry when no transaction is pre-assigned)"
          (List.length orbs) largest covered));
  List.rev !out

let lint std = lint_profile (profile std)
