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
   space so the triangular solves need no indirection, and L and U are
   also written transposed (by rows, by columns) for the solves' gathers.

   All working storage lives in the calling domain's [workspace], reused
   across calls; a factorization allocates only its output arrays, none
   when the arrays of a [reuse]d factorization fit (and, rarely, a
   larger pool when fill outgrows the current one). *)

type t = {
  m : int;
  lstart : int array;  (* m+1: step k -> L column k is [lstart.(k), lstart.(k+1)) *)
  lidx : int array;    (* below-diagonal rows of L, pivot order *)
  lval : float array;
  ustart : int array;  (* m+1: step k -> U row k, likewise *)
  uidx : int array;    (* right-of-diagonal columns of U, pivot order *)
  uval : float array;
  (* the transposes: L by rows, U by columns, each line by ascending
     pivot index (the order in which the column-oriented scatter of the
     same solve would reach it) *)
  lrstart : int array; (* m+1: L row i is [lrstart.(i), lrstart.(i+1)) *)
  lridx : int array;   (* columns k < i of L row i *)
  lrval : float array;
  ucstart : int array; (* m+1: U column j *)
  ucidx : int array;   (* rows k < j of U column j *)
  ucval : float array;
  upiv : float array;  (* diagonal of U, pivot order *)
  rowperm : int array; (* step -> original constraint row *)
  colperm : int array; (* step -> basis position *)
  rowinv : int array;  (* original constraint row -> step *)
  colinv : int array;  (* basis position -> step *)
}

let abs_tol = 1e-12
let tau = 0.1
let search_cols = 8

let identity m =
  let id () = Array.init m Fun.id in
  {
    m;
    lstart = Array.make (m + 1) 0; lidx = [||]; lval = [||];
    ustart = Array.make (m + 1) 0; uidx = [||]; uval = [||];
    lrstart = Array.make (m + 1) 0; lridx = [||]; lrval = [||];
    ucstart = Array.make (m + 1) 0; ucidx = [||]; ucval = [||];
    upiv = Array.make m 1.;
    rowperm = id (); colperm = id (); rowinv = id (); colinv = id ();
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
  mutable lst : ints;        (* dim + 1: L column starts *)
  mutable ust : ints;        (* dim + 1: U row starts *)
  mutable piv : Vec.t;       (* U diagonal *)
  mutable rperm : ints;
  mutable cperm : ints;
  mutable lbi : ints;
  mutable lbv : Vec.t;
  mutable ubi : ints;
  mutable ubv : Vec.t;
  (* L entries per row, U entries per column (original indices), and
     the fill positions of the transposes *)
  mutable lrcnt : ints;
  mutable uccnt : ints;
  mutable tpos : ints;
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
    lst = no_ints; ust = no_ints; piv = no_floats; rperm = no_ints;
    cperm = no_ints;
    lbi = no_ints; lbv = no_floats; ubi = no_ints; ubv = no_floats;
    lrcnt = no_ints; uccnt = no_ints; tpos = no_ints;
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
    w.lst <- ints (m + 1);
    w.ust <- ints (m + 1);
    w.piv <- Vec.create m;
    w.rperm <- ints m;
    w.cperm <- ints m;
    w.lrcnt <- ints m;
    w.uccnt <- ints m;
    w.tpos <- ints m
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

(* The output arrays of [factor]: those of the factorization it may
   reuse when they fit, else fresh ones.  Line arrays get a quarter more
   room, so the next factorization of a similar basis fits. *)
let no_factor =
  {
    m = -1;
    lstart = [||]; lidx = [||]; lval = [||];
    ustart = [||]; uidx = [||]; uval = [||];
    lrstart = [||]; lridx = [||]; lrval = [||];
    ucstart = [||]; ucidx = [||]; ucval = [||];
    upiv = [||]; rowperm = [||]; colperm = [||]; rowinv = [||]; colinv = [||];
  }

let exact_ints a n = if Array.length a = n then a else Array.make n 0
let exact_floats a n = if Array.length a = n then a else Array.create_float n
let room_ints a n = if Array.length a >= n then a else Array.make (n + (n / 4)) 0

let room_floats a n =
  if Array.length a >= n then a else Array.create_float (n + (n / 4))

let copy_ints (src : ints) dst n =
  for i = 0 to n - 1 do
    dst.(i) <- src.{i}
  done;
  dst

(* Write the m lines [start] of the staged entries [sidx]/[sval], their
   indices remapped through [inv] into pivot order, into [into], and the
   transpose of those lines into [tinto]: line [i] of the transpose, at
   [tstart.(i)], lists the lines holding an entry at [i], in ascending
   order, with those entries.  [pos] is m ints of scratch. *)
let remap (pos : ints) m start (sidx : ints) (sval : Vec.t) inv
    ~into:(idx, value) ~tstart ~tinto:(tidx, tval) =
  for i = 0 to m - 1 do
    pos.{i} <- tstart.(i)
  done;
  for k = 0 to m - 1 do
    for e = start.(k) to start.(k + 1) - 1 do
      let i = inv.(sidx.{e}) and v = sval.{e} in
      idx.(e) <- i;
      value.(e) <- v;
      let p = pos.{i} in
      tidx.(p) <- k;
      tval.(p) <- v;
      pos.{i} <- p + 1
    done
  done

exception Singular

let factor ?reuse (cols_idx : int array array) (cols_val : float array array)
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
      w.rowcnt.{i} <- 0;
      w.lrcnt.{i} <- 0;
      w.uccnt.{i} <- 0
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
    (* The factors are staged in the workspace, so [reuse] is untouched
       when the basis turns out singular. *)
    let lstart = w.lst and ustart = w.ust and upiv = w.piv in
    let rowperm = w.rperm and colperm = w.cperm in
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
        colperm.{k} <- pc;
        rowperm.{k} <- pr;
        (* ---- pivot column -> L column k (multipliers) ---- *)
        let s = w.cstart.{pc} and len = w.clen.{pc} in
        let piv = ref 0. in
        for e = s to s + len - 1 do
          if w.cidx.{e} = pr then piv := w.cval.{e}
        done;
        let piv = !piv in
        upiv.{k} <- piv;
        let nl = len - 1 in
        lstart.{k} <- !ltop;
        w.lbi <- grow_int w.lbi (!ltop + len);
        w.lbv <- grow_float w.lbv (!ltop + len);
        for e = s to s + len - 1 do
          let i = w.cidx.{e} in
          w.rowcnt.{i} <- w.rowcnt.{i} - 1;
          if i <> pr then begin
            w.lbi.{!ltop} <- i;
            w.lrcnt.{i} <- w.lrcnt.{i} + 1;
            w.lbv.{!ltop} <- w.cval.{e} /. piv;
            incr ltop
          end
        done;
        let l0 = lstart.{k} in
        unlink w pc;
        w.col_active.(pc) <- false;
        w.colcnt.{pc} <- 0;
        w.clen.{pc} <- 0;
        (* ---- pivot row -> U row k; rank-1 update of touched columns ---- *)
        ustart.{k} <- !utop;
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
              w.uccnt.{jj} <- w.uccnt.{jj} + 1;
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
                w.uccnt.{jj} <- w.uccnt.{jj} + 1;
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
      lstart.{m} <- !ltop;
      ustart.{m} <- !utop;
      let r = match reuse with Some r when r.m = m -> r | _ -> no_factor in
      let rowperm = copy_ints rowperm (exact_ints r.rowperm m) m
      and colperm = copy_ints colperm (exact_ints r.colperm m) m in
      (* Remap stored indices into pivot-order space: L rows through the
         row permutation, U columns through the column permutation.  All
         remapped indices are > k (rows/columns still active at step k
         are eliminated later), which is what the solves rely on.  The
         transposes' line starts come from the counts kept during the
         elimination. *)
      let rowinv = exact_ints r.rowinv m and colinv = exact_ints r.colinv m in
      let lrstart = exact_ints r.lrstart (m + 1)
      and ucstart = exact_ints r.ucstart (m + 1) in
      for k = 0 to m - 1 do
        rowinv.(rowperm.(k)) <- k;
        colinv.(colperm.(k)) <- k;
        lrstart.(k + 1) <- lrstart.(k) + w.lrcnt.{rowperm.(k)};
        ucstart.(k + 1) <- ucstart.(k) + w.uccnt.{colperm.(k)}
      done;
      let lstart = copy_ints lstart (exact_ints r.lstart (m + 1)) (m + 1)
      and ustart = copy_ints ustart (exact_ints r.ustart (m + 1)) (m + 1) in
      let upiv = exact_floats r.upiv m in
      for k = 0 to m - 1 do
        upiv.(k) <- w.piv.{k}
      done;
      let lidx = room_ints r.lidx !ltop and lval = room_floats r.lval !ltop
      and lridx = room_ints r.lridx !ltop
      and lrval = room_floats r.lrval !ltop in
      remap w.tpos m lstart w.lbi w.lbv rowinv ~into:(lidx, lval)
        ~tstart:lrstart ~tinto:(lridx, lrval);
      let uidx = room_ints r.uidx !utop and uval = room_floats r.uval !utop
      and ucidx = room_ints r.ucidx !utop
      and ucval = room_floats r.ucval !utop in
      remap w.tpos m ustart w.ubi w.ubv colinv ~into:(uidx, uval)
        ~tstart:ucstart ~tinto:(ucidx, ucval);
      Some
        {
          m;
          lstart; lidx; lval;
          ustart; uidx; uval;
          lrstart; lridx; lrval;
          ucstart; ucidx; ucval;
          upiv;
          rowperm; colperm; rowinv; colinv;
        }
  end

(* ------------------------------------------------------------------ *)
(* Solves                                                              *)
(* ------------------------------------------------------------------ *)

(* Solve scratch, one per domain like the factorization workspace: the
   dense vector the triangular solves work in (all zero between solves),
   and the depth-first search's visit stamps, stack and output.  A solve
   reads nothing it did not write first (a visit stamp from an earlier
   solve is always older than the current one), so results do not depend
   on what the domain solved before. *)
type scratch = {
  mutable sdim : int;
  mutable y : Vec.t;
  mutable visit : ints;   (* node visited in the search stamped [stamp] *)
  mutable stamp : int;
  mutable stack : ints;
  mutable edge : ints;    (* next out-edge to scan, per stack level *)
  mutable order : ints;   (* the reach, topologically, at [top, m) *)
}

let domain_scratch =
  Domain.DLS.new_key (fun () ->
      { sdim = 0; y = Vec.create 0; visit = no_ints; stamp = 0;
        stack = no_ints; edge = no_ints; order = no_ints })

let scratch m =
  let s = Domain.DLS.get domain_scratch in
  if m > s.sdim then begin
    s.sdim <- m;
    s.y <- Vec.create m;
    s.visit <- ints m;
    s.stamp <- 0;
    s.stack <- ints m;
    s.edge <- ints m;
    s.order <- ints m
  end;
  s

(* The reach of [roots.(0 .. nroots-1)] in the graph whose node [j] has
   the out-edges [gidx.(gstart.(j) .. gstart.(j+1) - 1)] (Gilbert and
   Peierls' depth-first search, without recursion).  It is stored in
   [s.order] at [top, m), in topological order: a node comes before
   every node it has an edge to.  Returns [top].  When [nroots = m] the
   reach is every node, and since the edges of a triangular factor all
   go up in index ([ascending]) or all go down, the nodes in index order
   are a topological order: no search runs. *)
let reach s m ~ascending gstart gidx roots nroots =
  let order = s.order in
  if nroots = m then begin
    for p = 0 to m - 1 do
      order.{p} <- (if ascending then p else m - 1 - p)
    done;
    0
  end
  else begin
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp and visit = s.visit in
    let stack = s.stack and edge = s.edge in
    let top = ref m in
    for r = 0 to nroots - 1 do
      let root = roots.(r) in
      if visit.{root} <> stamp then begin
        visit.{root} <- stamp;
        stack.{0} <- root;
        edge.{0} <- gstart.(root);
        let sp = ref 0 in
        while !sp >= 0 do
          let j = stack.{!sp} in
          let stop = gstart.(j + 1) in
          let e = ref edge.{!sp} in
          while !e < stop && visit.{gidx.(!e)} = stamp do
            incr e
          done;
          if !e < stop then begin
            let i = gidx.(!e) in
            edge.{!sp} <- !e + 1;
            visit.{i} <- stamp;
            incr sp;
            stack.{!sp} <- i;
            edge.{!sp} <- gstart.(i)
          end
          else begin
            decr sp;
            decr top;
            order.{!top} <- j
          end
        done
      end
    done;
    !top
  end

(* Both solves run in two triangular stages.  Each stage finds the reach
   of its right-hand side's nonzeros, then computes every entry of the
   reach as a gather, in topological order.  The first stage's gather
   runs over a transpose, whose lines are sorted by pivot index: an entry
   takes its terms in the order the column-oriented forward substitution
   would scatter them, which skips a term only when it is zero.  So the
   result does not depend on the order the search found the reach in,
   and it is the same, but for the sign of a zero, as the dense
   substitution over all m steps.  The second stage's gather runs over
   the stored lines, in their stored order, as the dense substitution
   does. *)

(* Move the n listed entries of [b] into [s.y], through [perm] (original
   index -> step), zeroing them in [b]; keep in [nz] the steps of the
   nonzero ones and return their count. *)
let load s (b : Vec.t) perm nz n =
  let y = s.y in
  let c = ref 0 in
  for e = 0 to n - 1 do
    let i = nz.(e) in
    let v = b.{i} in
    b.{i} <- 0.;
    if v <> 0. then begin
      let k = perm.(i) in
      y.{k} <- v;
      nz.(!c) <- k;
      incr c
    end
  done;
  !c

(* Keep in [nz] the steps of the reach at [top, m) whose entries are
   nonzero, zeroing the others; return their count. *)
let keep_nonzero s m top nz =
  let y = s.y and order = s.order in
  let c = ref 0 in
  for p = top to m - 1 do
    let k = order.{p} in
    if y.{k} <> 0. then begin
      nz.(!c) <- k;
      incr c
    end
    else y.{k} <- 0.
  done;
  !c

(* Move the nonzero entries of the reach at [top, m) from [s.y] into
   [b], through [perm] (step -> original index), listing them in [nz];
   [s.y] is left all zero.  Returns their count. *)
let store s m top (b : Vec.t) perm nz =
  let y = s.y and order = s.order in
  let c = ref 0 in
  for p = top to m - 1 do
    let k = order.{p} in
    let v = y.{k} in
    y.{k} <- 0.;
    if v <> 0. then begin
      let i = perm.(k) in
      b.{i} <- v;
      nz.(!c) <- i;
      incr c
    end
  done;
  !c

(* Solve B w = b:  P B Q = L U, so L U (Qᵀw) = P b.  Forward through L
   (row gathers), then backward through U (row gathers). *)
let ftran t (b : Vec.t) nz n =
  let m = t.m in
  let s = scratch m in
  let y = s.y and order = s.order in
  let full = n = m in
  let n = load s b t.rowinv nz n in
  let roots = if full then m else n in
  let top = reach s m ~ascending:true t.lstart t.lidx nz roots in
  let lrstart = t.lrstart and lridx = t.lridx and lrval = t.lrval in
  for p = top to m - 1 do
    let i = order.{p} in
    let acc = ref y.{i} in
    for e = lrstart.(i) to lrstart.(i + 1) - 1 do
      acc := !acc -. (lrval.(e) *. y.{lridx.(e)})
    done;
    y.{i} <- !acc
  done;
  let n = keep_nonzero s m top nz in
  let roots = if full then m else n in
  let top = reach s m ~ascending:false t.ucstart t.ucidx nz roots in
  let ustart = t.ustart and uidx = t.uidx and uval = t.uval in
  for p = top to m - 1 do
    let k = order.{p} in
    let acc = ref y.{k} in
    for e = ustart.(k) to ustart.(k + 1) - 1 do
      acc := !acc -. (uval.(e) *. y.{uidx.(e)})
    done;
    y.{k} <- !acc /. t.upiv.(k)
  done;
  store s m top b t.colperm nz

(* Solve Bᵀ v = u:  Uᵀ Lᵀ (P v) = Qᵀ u.  Forward through Uᵀ (column
   gathers), then backward through Lᵀ (column gathers). *)
let btran t (u : Vec.t) nz n =
  let m = t.m in
  let s = scratch m in
  let y = s.y and order = s.order in
  let full = n = m in
  let n = load s u t.colinv nz n in
  let roots = if full then m else n in
  let top = reach s m ~ascending:true t.ustart t.uidx nz roots in
  let ucstart = t.ucstart and ucidx = t.ucidx and ucval = t.ucval in
  for p = top to m - 1 do
    let j = order.{p} in
    let acc = ref y.{j} in
    for e = ucstart.(j) to ucstart.(j + 1) - 1 do
      acc := !acc -. (ucval.(e) *. y.{ucidx.(e)})
    done;
    y.{j} <- !acc /. t.upiv.(j)
  done;
  let n = keep_nonzero s m top nz in
  let roots = if full then m else n in
  let top = reach s m ~ascending:false t.lrstart t.lridx nz roots in
  let lstart = t.lstart and lidx = t.lidx and lval = t.lval in
  for p = top to m - 1 do
    let k = order.{p} in
    let acc = ref y.{k} in
    for e = lstart.(k) to lstart.(k + 1) - 1 do
      acc := !acc -. (lval.(e) *. y.{lidx.(e)})
    done;
    y.{k} <- !acc
  done;
  store s m top u t.rowperm nz
