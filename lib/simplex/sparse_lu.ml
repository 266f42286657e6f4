(* Right-looking sparse LU with Markowitz pivoting.

   The active submatrix lives in dynamic sparse columns held in one flat
   pool (exact live counts; a column may carry dead entries of
   eliminated rows, dropped in place the next time it is scanned) plus
   per-row lists of (column, value) pairs for the columns whose pattern
   ever included the row (append-only, so they may carry stale
   references; membership is re-validated against the column before
   use).  Row/column nonzero counts are exact, and columns are bucketed
   by count in doubly-linked lists so the pivot search walks the
   sparsest columns first.

   At step k the search examines buckets in increasing column count,
   collecting up to [search_cols] candidate columns with an acceptable
   entry (|a_ij| >= tau * colmax_j), and takes the entry minimizing the
   Markowitz cost (rowcnt-1)(colcnt-1), largest magnitude on ties.  The
   search stops early once the best cost cannot be beaten by the next
   bucket — the standard Suhl-style compromise between fill optimality
   and search time.

   Elimination is classic right-looking: the pivot column's multipliers
   become column k of L, the pivot row becomes row k of U, and every
   active column containing the pivot row is rebuilt in place through a
   scatter/gather workspace (exact cancellations are dropped; fill
   entries update the row lists and counts).  A column-singleton pivot
   (empty L column) changes no values, so a column still holding its
   loaded values ([pristine]) reads its U entry from the row list and
   only has its count decremented: the dead entry goes at its next scan.
   After the last step the stored indices are remapped into pivot-order
   space so the triangular solves need no indirection.

   All working storage lives in the calling domain's [workspace], reused
   across calls; a factorization allocates only its output arrays (and,
   rarely, a larger pool when fill outgrows the current one). *)

type t = {
  m : int;
  lstart : int array;  (* m+1: step k -> L column k is [lstart.(k), lstart.(k+1)) *)
  lidx : int array;    (* below-diagonal rows of L, pivot order *)
  lval : float array;
  ustart : int array;  (* m+1: step k -> U row k, likewise *)
  uidx : int array;    (* right-of-diagonal columns of U, pivot order *)
  uval : float array;
  upiv : float array;  (* diagonal of U, pivot order *)
  rowperm : int array; (* step -> original constraint row *)
  colperm : int array; (* step -> basis position *)
}

let abs_tol = 1e-12
let tau = 0.1
let search_cols = 8

let identity m =
  {
    m;
    lstart = Array.make (m + 1) 0;
    lidx = [||];
    lval = [||];
    ustart = Array.make (m + 1) 0;
    uidx = [||];
    uval = [||];
    upiv = Array.make m 1.;
    rowperm = Array.init m Fun.id;
    colperm = Array.init m Fun.id;
  }

let size t = t.m
let nnz t = t.m + t.lstart.(t.m) + t.ustart.(t.m)

(* Working storage.  Per-row/column arrays are sized to the largest
   basis seen ([dim]); the pools and the L/U staging buffers grow to the
   largest demand seen.  Nothing here survives a [factor] call in any
   meaningful way: every field read is re-initialized first.  The int and
   float buffers are bigarrays: a workspace lives as long as its domain,
   and outside the OCaml heap it does not swell the heap the major GC
   paces itself by. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let no_ints = ints 0

type workspace = {
  mutable dim : int;
  (* column j: entries [cstart.{j}, cstart.{j} + clen.{j}) of cidx/cval,
     room for ccap.{j}; colcnt.{j} <= clen.{j} counts the live ones *)
  mutable cstart : ints;
  mutable clen : ints;
  mutable ccap : ints;
  mutable colcnt : ints;
  mutable pristine : bool array;  (* values as loaded: row-list values valid *)
  mutable col_active : bool array;
  mutable cidx : ints;
  mutable cval : Vec.t;
  mutable ctop : int;
  (* row i: entries [rstart.{i}, rstart.{i} + rlen.{i}) of rcol/rval *)
  mutable rstart : ints;
  mutable rlen : ints;
  mutable rcap : ints;
  mutable rowcnt : ints;
  mutable row_done : bool array;
  mutable rcol : ints;
  mutable rval : Vec.t;
  mutable rtop : int;
  (* count buckets *)
  mutable head : ints;       (* dim + 1 *)
  mutable nxt : ints;
  mutable prv : ints;
  (* scatter workspace for column updates: all-zero / all-false between uses *)
  mutable wval : Vec.t;
  mutable wmark : bool array;
  mutable wpat : ints;
  (* L/U staging in original index space *)
  mutable lbi : ints;
  mutable lbv : Vec.t;
  mutable ubi : ints;
  mutable ubv : Vec.t;
  mutable rowinv : ints;
  mutable colinv : ints;
}

let workspace () =
  let no_floats = Vec.create 0 in
  {
    dim = 0;
    cstart = no_ints; clen = no_ints; ccap = no_ints; colcnt = no_ints;
    pristine = [||]; col_active = [||];
    cidx = no_ints; cval = no_floats; ctop = 0;
    rstart = no_ints; rlen = no_ints; rcap = no_ints; rowcnt = no_ints;
    row_done = [||]; rcol = no_ints; rval = no_floats; rtop = 0;
    head = no_ints; nxt = no_ints; prv = no_ints;
    wval = no_floats; wmark = [||]; wpat = no_ints;
    lbi = no_ints; lbv = no_floats; ubi = no_ints; ubv = no_floats;
    rowinv = no_ints; colinv = no_ints;
  }

(* The workspace [factor] uses: one per domain, so concurrent
   factorizations on different domains never share one, and a domain's
   successive factorizations (of any instance) reuse it. *)
let domain_workspace = Domain.DLS.new_key workspace

let ensure_dim w m =
  if m > w.dim then begin
    w.dim <- m;
    w.cstart <- ints m;
    w.clen <- ints m;
    w.ccap <- ints m;
    w.colcnt <- ints m;
    w.pristine <- Array.make m false;
    w.col_active <- Array.make m false;
    w.rstart <- ints m;
    w.rlen <- ints m;
    w.rcap <- ints m;
    w.rowcnt <- ints m;
    w.row_done <- Array.make m false;
    w.head <- ints (m + 1);
    w.nxt <- ints m;
    w.prv <- ints m;
    w.wval <- Vec.create m;
    w.wmark <- Array.make m false;
    w.wpat <- ints m;
    w.rowinv <- ints m;
    w.colinv <- ints m
  end

(* [a] when it holds [need] entries, else a copy with a quarter more
   room: the buffers live as long as their workspace, so they are kept
   close to the largest demand seen. *)
let grow_int (a : ints) need =
  let len = Bigarray.Array1.dim a in
  if len >= need then a
  else begin
    let b = ints (need + (need / 4)) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 len);
    b
  end

let grow_float (a : Vec.t) need =
  let len = Vec.length a in
  if len >= need then a
  else begin
    let b = Vec.create (need + (need / 4)) in
    Vec.blit a (Vec.sub b 0 len);
    b
  end

(* Copy [len] entries from [src] at [s] to [dst] at [d]; the ranges
   never overlap (pool moves always go to the free top). *)
let move_ints (src : ints) s (dst : ints) d len =
  for e = 0 to len - 1 do
    dst.{d + e} <- src.{s + e}
  done

let move_floats (src : Vec.t) s (dst : Vec.t) d len =
  for e = 0 to len - 1 do
    dst.{d + e} <- src.{s + e}
  done

(* Make room for [need] more entries at the column pool's top.  When the
   pool is exhausted the active columns are repacked (tight) into a pool
   at least twice their live size. *)
let reserve_cols w m need =
  if w.ctop + need > Bigarray.Array1.dim w.cidx then begin
    let live = ref 0 in
    for j = 0 to m - 1 do
      if w.col_active.(j) then live := !live + w.clen.{j}
    done;
    let cap = max (Bigarray.Array1.dim w.cidx) (2 * (!live + need)) in
    let ni = ints cap and nv = Vec.create cap in
    let top = ref 0 in
    for j = 0 to m - 1 do
      if w.col_active.(j) then begin
        move_ints w.cidx w.cstart.{j} ni !top w.clen.{j};
        move_floats w.cval w.cstart.{j} nv !top w.clen.{j};
        w.cstart.{j} <- !top;
        w.ccap.{j} <- w.clen.{j};
        top := !top + w.clen.{j}
      end
    done;
    w.cidx <- ni;
    w.cval <- nv;
    w.ctop <- !top
  end

(* Same for the row-list pool; eliminated rows hold no entries. *)
let reserve_rows w m need =
  if w.rtop + need > Bigarray.Array1.dim w.rcol then begin
    let live = ref 0 in
    for i = 0 to m - 1 do
      live := !live + w.rlen.{i}
    done;
    let cap = max (Bigarray.Array1.dim w.rcol) (2 * (!live + need)) in
    let ni = ints cap and nv = Vec.create cap in
    let top = ref 0 in
    for i = 0 to m - 1 do
      move_ints w.rcol w.rstart.{i} ni !top w.rlen.{i};
      move_floats w.rval w.rstart.{i} nv !top w.rlen.{i};
      w.rstart.{i} <- !top;
      w.rcap.{i} <- w.rlen.{i};
      top := !top + w.rlen.{i}
    done;
    w.rcol <- ni;
    w.rval <- nv;
    w.rtop <- !top
  end

let rpush w m i j =
  if w.rlen.{i} >= w.rcap.{i} then begin
    let cap = max 4 (2 * w.rcap.{i}) in
    reserve_rows w m cap;
    move_ints w.rcol w.rstart.{i} w.rcol w.rtop w.rlen.{i};
    move_floats w.rval w.rstart.{i} w.rval w.rtop w.rlen.{i};
    w.rstart.{i} <- w.rtop;
    w.rcap.{i} <- cap;
    w.rtop <- w.rtop + cap
  end;
  let p = w.rstart.{i} + w.rlen.{i} in
  w.rcol.{p} <- j;
  (* a filled column is not pristine, so this value is never read *)
  w.rval.{p} <- 0.;
  w.rlen.{i} <- w.rlen.{i} + 1

(* Drop the dead entries (rows already eliminated) of column j, keeping
   the order of the live ones. *)
let compact w j =
  if w.clen.{j} <> w.colcnt.{j} then begin
    let s = w.cstart.{j} in
    let p = ref s in
    for e = s to s + w.clen.{j} - 1 do
      let i = w.cidx.{e} in
      if not w.row_done.(i) then begin
        w.cidx.{!p} <- i;
        w.cval.{!p} <- w.cval.{e};
        incr p
      end
    done;
    w.clen.{j} <- !p - s
  end

let unlink w j =
  let c = w.colcnt.{j} in
  if w.prv.{j} >= 0 then w.nxt.{w.prv.{j}} <- w.nxt.{j}
  else w.head.{c} <- w.nxt.{j};
  if w.nxt.{j} >= 0 then w.prv.{w.nxt.{j}} <- w.prv.{j};
  w.prv.{j} <- -1;
  w.nxt.{j} <- -1

exception Singular

let factor (cols_idx : int array array) (cols_val : float array array)
    (basis : int array) =
  let m = Array.length basis in
  if m = 0 then Some (identity 0)
  else begin
    let w = Domain.DLS.get domain_workspace in
    ensure_dim w m;
    (* ---- load the basis columns ---- *)
    let total = ref 0 in
    for k = 0 to m - 1 do
      total := !total + Array.length cols_idx.(basis.(k))
    done;
    let total = !total in
    w.cidx <- grow_int w.cidx total;
    w.cval <- grow_float w.cval total;
    w.rcol <- grow_int w.rcol total;
    w.rval <- grow_float w.rval total;
    for i = 0 to m - 1 do
      w.rowcnt.{i} <- 0
    done;
    let top = ref 0 in
    for k = 0 to m - 1 do
      let ci = cols_idx.(basis.(k)) and cv = cols_val.(basis.(k)) in
      let len = Array.length ci in
      w.cstart.{k} <- !top;
      w.clen.{k} <- len;
      w.ccap.{k} <- len;
      w.colcnt.{k} <- len;
      w.col_active.(k) <- true;
      (* an explicit zero is dropped by the first update of its column,
         which the row-list shortcut would skip *)
      let zero = ref false in
      for e = 0 to len - 1 do
        w.cidx.{!top + e} <- ci.(e);
        w.cval.{!top + e} <- cv.(e);
        w.rowcnt.{ci.(e)} <- w.rowcnt.{ci.(e)} + 1;
        if cv.(e) = 0. then zero := true
      done;
      w.pristine.(k) <- not !zero;
      top := !top + len
    done;
    w.ctop <- total;
    (* Row lists in ascending column order, with the loaded values. *)
    let p = ref 0 in
    for i = 0 to m - 1 do
      w.rstart.{i} <- !p;
      w.rlen.{i} <- 0;
      w.rcap.{i} <- w.rowcnt.{i};
      w.row_done.(i) <- false;
      p := !p + w.rowcnt.{i}
    done;
    w.rtop <- total;
    for k = 0 to m - 1 do
      for e = w.cstart.{k} to w.cstart.{k} + w.clen.{k} - 1 do
        let i = w.cidx.{e} in
        let q = w.rstart.{i} + w.rlen.{i} in
        w.rcol.{q} <- k;
        w.rval.{q} <- w.cval.{e};
        w.rlen.{i} <- w.rlen.{i} + 1
      done
    done;
    (* Columns bucketed by nonzero count (doubly-linked lists). *)
    for c = 0 to m do
      w.head.{c} <- -1
    done;
    let cmin = ref 1 in
    let link j =
      let c = w.colcnt.{j} in
      w.prv.{j} <- -1;
      w.nxt.{j} <- w.head.{c};
      if w.head.{c} >= 0 then w.prv.{w.head.{c}} <- j;
      w.head.{c} <- j;
      if c >= 1 && c < !cmin then cmin := c
    in
    for j = 0 to m - 1 do
      link j
    done;
    (* Outputs; L/U entries are staged in the workspace. *)
    let lstart = Array.make (m + 1) 0 and ustart = Array.make (m + 1) 0 in
    let upiv = Array.make m 0. in
    let rowperm = Array.make m (-1) and colperm = Array.make m (-1) in
    let ltop = ref 0 and utop = ref 0 in
    match
      for k = 0 to m - 1 do
        (* ---- pivot search ---- *)
        let best_cost = ref max_int
        and best_col = ref (-1)
        and best_row = ref (-1)
        and best_mag = ref 0. in
        let cands = ref 0 in
        (try
           let cnt = ref (max 1 !cmin) in
           let first_nonempty = ref false in
           while !cnt <= m do
             (if !best_col >= 0 && !best_cost <= (!cnt - 1) * (!cnt - 1) then
                raise Exit);
             let j = ref w.head.{!cnt} in
             if !j >= 0 && not !first_nonempty then begin
               first_nonempty := true;
               cmin := !cnt
             end;
             while !j >= 0 do
               let jj = !j in
               compact w jj;
               let s = w.cstart.{jj} in
               let e1 = s + w.clen.{jj} - 1 in
               let cmax = ref 0. in
               for e = s to e1 do
                 let a = Float.abs w.cval.{e} in
                 if a > !cmax then cmax := a
               done;
               if !cmax >= abs_tol then begin
                 let thresh = tau *. !cmax in
                 let found = ref false in
                 for e = s to e1 do
                   let a = Float.abs w.cval.{e} in
                   if a >= thresh then begin
                     let i = w.cidx.{e} in
                     let cost = (w.rowcnt.{i} - 1) * (!cnt - 1) in
                     if
                       cost < !best_cost
                       || (cost = !best_cost && a > !best_mag)
                     then begin
                       best_cost := cost;
                       best_col := jj;
                       best_row := i;
                       best_mag := a
                     end;
                     found := true
                   end
                 done;
                 if !found then incr cands
               end;
               if !best_cost = 0 || !cands >= search_cols then raise Exit;
               j := w.nxt.{jj}
             done;
             incr cnt
           done
         with Exit -> ());
        if !best_col < 0 then raise Singular;
        let pc = !best_col and pr = !best_row in
        colperm.(k) <- pc;
        rowperm.(k) <- pr;
        (* ---- pivot column -> L column k (multipliers) ---- *)
        let s = w.cstart.{pc} and len = w.clen.{pc} in
        let piv = ref 0. in
        for e = s to s + len - 1 do
          if w.cidx.{e} = pr then piv := w.cval.{e}
        done;
        let piv = !piv in
        upiv.(k) <- piv;
        let nl = len - 1 in
        lstart.(k) <- !ltop;
        w.lbi <- grow_int w.lbi (!ltop + len);
        w.lbv <- grow_float w.lbv (!ltop + len);
        for e = s to s + len - 1 do
          let i = w.cidx.{e} in
          w.rowcnt.{i} <- w.rowcnt.{i} - 1;
          if i <> pr then begin
            w.lbi.{!ltop} <- i;
            w.lbv.{!ltop} <- w.cval.{e} /. piv;
            incr ltop
          end
        done;
        let l0 = lstart.(k) in
        unlink w pc;
        w.col_active.(pc) <- false;
        w.colcnt.{pc} <- 0;
        w.clen.{pc} <- 0;
        (* ---- pivot row -> U row k; rank-1 update of touched columns ---- *)
        ustart.(k) <- !utop;
        (* at most one U entry per row-list entry *)
        w.ubi <- grow_int w.ubi (!utop + w.rlen.{pr});
        w.ubv <- grow_float w.ubv (!utop + w.rlen.{pr});
        for e = 0 to w.rlen.{pr} - 1 do
          (* re-read: a fill push below may repack the row pool *)
          let re = w.rstart.{pr} + e in
          let jj = w.rcol.{re} in
          if w.col_active.(jj) then
            if nl = 0 && w.pristine.(jj) then begin
              (* a pristine column appears once in each of its rows' lists,
                 with its loaded value *)
              w.ubi.{!utop} <- jj;
              w.ubv.{!utop} <- w.rval.{re};
              incr utop;
              unlink w jj;
              w.colcnt.{jj} <- w.colcnt.{jj} - 1;
              link jj
            end
            else begin
              compact w jj;
              let s = w.cstart.{jj} and len = w.clen.{jj} in
              let uval = ref 0. and present = ref false in
              for q = s to s + len - 1 do
                if w.cidx.{q} = pr then begin
                  uval := w.cval.{q};
                  present := true
                end
              done;
              (* the row list is append-only: [jj] may be stale (the entry
                 cancelled in an earlier update) or a duplicate already
                 consumed this step (its pr entry was dropped below) *)
              if !present then begin
                let u = !uval in
                w.ubi.{!utop} <- jj;
                w.ubv.{!utop} <- u;
                incr utop;
                (* column jj := column jj - l * u, dropping row pr *)
                let npat = ref 0 in
                for q = s to s + len - 1 do
                  let i = w.cidx.{q} in
                  if i <> pr then begin
                    w.wval.{i} <- w.cval.{q};
                    w.wmark.(i) <- true;
                    w.wpat.{!npat} <- i;
                    incr npat
                  end
                done;
                for q = l0 to l0 + nl - 1 do
                  let i = w.lbi.{q} in
                  let delta = -.(w.lbv.{q} *. u) in
                  if w.wmark.(i) then w.wval.{i} <- w.wval.{i} +. delta
                  else begin
                    w.wval.{i} <- delta;
                    w.wmark.(i) <- true;
                    w.wpat.{!npat} <- i;
                    incr npat;
                    w.rowcnt.{i} <- w.rowcnt.{i} + 1;
                    rpush w m i jj
                  end
                done;
                let nlen = ref 0 in
                for q = 0 to !npat - 1 do
                  if w.wval.{w.wpat.{q}} <> 0. then incr nlen
                done;
                if !nlen > w.ccap.{jj} then begin
                  let cap = 2 * !nlen in
                  reserve_cols w m cap;
                  w.cstart.{jj} <- w.ctop;
                  w.ccap.{jj} <- cap;
                  w.ctop <- w.ctop + cap
                end;
                let p = ref w.cstart.{jj} in
                for q = 0 to !npat - 1 do
                  let i = w.wpat.{q} in
                  if w.wval.{i} <> 0. then begin
                    w.cidx.{!p} <- i;
                    w.cval.{!p} <- w.wval.{i};
                    incr p
                  end
                  else w.rowcnt.{i} <- w.rowcnt.{i} - 1;
                  w.wmark.(i) <- false;
                  w.wval.{i} <- 0.
                done;
                w.clen.{jj} <- !nlen;
                w.pristine.(jj) <- false;
                unlink w jj;
                w.colcnt.{jj} <- !nlen;
                link jj
              end
            end
        done;
        w.rowcnt.{pr} <- 0;
        w.rlen.{pr} <- 0;
        w.row_done.(pr) <- true
      done
    with
    | exception Singular -> None
    | () ->
      lstart.(m) <- !ltop;
      ustart.(m) <- !utop;
      (* Remap stored indices into pivot-order space: L rows through the
         row permutation, U columns through the column permutation.  All
         remapped indices are > k (rows/columns still active at step k
         are eliminated later), which is what the solves rely on. *)
      let rowinv = w.rowinv and colinv = w.colinv in
      for k = 0 to m - 1 do
        rowinv.{rowperm.(k)} <- k;
        colinv.{colperm.(k)} <- k
      done;
      let lidx = Array.make !ltop 0 and uidx = Array.make !utop 0 in
      for e = 0 to !ltop - 1 do
        lidx.(e) <- rowinv.{w.lbi.{e}}
      done;
      for e = 0 to !utop - 1 do
        uidx.(e) <- colinv.{w.ubi.{e}}
      done;
      Some
        {
          m;
          lstart;
          lidx;
          lval = Array.init !ltop (fun e -> w.lbv.{e});
          ustart;
          uidx;
          uval = Array.init !utop (fun e -> w.ubv.{e});
          upiv;
          rowperm;
          colperm;
        }
  end

(* Solve B w = b:  P B Q = L U, so L U (Qᵀw) = P b.  Forward scatter
   through L skips zero positions — a sparse right-hand side touches only
   its reach, Gilbert–Peierls style — then a backward gather through U. *)
let ftran t ~work (b : Vec.t) =
  let m = t.m in
  let y : Vec.t = work in
  for k = 0 to m - 1 do
    y.{k} <- b.{t.rowperm.(k)}
  done;
  let lidx = t.lidx and lval = t.lval and lstart = t.lstart in
  for k = 0 to m - 1 do
    let yk = y.{k} in
    if yk <> 0. then
      for e = lstart.(k) to lstart.(k + 1) - 1 do
        y.{lidx.(e)} <- y.{lidx.(e)} -. (lval.(e) *. yk)
      done
  done;
  (* y.{k} is final once computed: later steps only read y.{j}, j > k *)
  let uidx = t.uidx and uval = t.uval and ustart = t.ustart in
  for k = m - 1 downto 0 do
    let acc = ref y.{k} in
    for e = ustart.(k) to ustart.(k + 1) - 1 do
      acc := !acc -. (uval.(e) *. y.{uidx.(e)})
    done;
    let yk = !acc /. t.upiv.(k) in
    y.{k} <- yk;
    b.{t.colperm.(k)} <- yk
  done

(* Solve Bᵀ v = u:  Uᵀ Lᵀ (P v) = Qᵀ u.  Forward scatter through Uᵀ
   (zero-skipping, so a near-unit right-hand side stays sparse), backward
   gather through Lᵀ. *)
let btran t ~work (u : Vec.t) =
  let m = t.m in
  let y : Vec.t = work in
  for k = 0 to m - 1 do
    y.{k} <- u.{t.colperm.(k)}
  done;
  let uidx = t.uidx and uval = t.uval and ustart = t.ustart in
  for k = 0 to m - 1 do
    let yk = y.{k} /. t.upiv.(k) in
    y.{k} <- yk;
    if yk <> 0. then
      for e = ustart.(k) to ustart.(k + 1) - 1 do
        y.{uidx.(e)} <- y.{uidx.(e)} -. (uval.(e) *. yk)
      done
  done;
  let lidx = t.lidx and lval = t.lval and lstart = t.lstart in
  for k = m - 1 downto 0 do
    let acc = ref y.{k} in
    for e = lstart.(k) to lstart.(k + 1) - 1 do
      acc := !acc -. (lval.(e) *. y.{lidx.(e)})
    done;
    y.{k} <- !acc;
    u.{t.rowperm.(k)} <- !acc
  done
