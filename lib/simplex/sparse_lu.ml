(* Right-looking sparse LU with Markowitz pivoting, and a Forrest-Tomlin
   update of its U factor.

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
   space (the label of a row or column of L and U is its elimination
   step) so the triangular solves need no indirection, and L and U are
   each laid out twice, by rows and by columns, for the solves' searches
   and gathers.

   Update (Forrest and Tomlin; Suhl and Suhl 1993): when the basis
   column at label k is replaced, column k of U becomes the spike
   s = R L^-1 P a (what ftran holds between its row-eta and U stages),
   label k moves to the end of U's pivot order, and the off-diagonal
   entries of old row k are eliminated by the rows after it.  The
   elimination multipliers mu form one row eta R_k = I - e_k mu^T; they
   are -z_j / z_k for z = U^-T e_k, the U stage of the btran of the
   leaving row, which the dual simplex has just computed.  The new
   diagonal is u_kk * alpha, alpha the pivot element of the entering
   column, and z.s / (z_k u_kk) recomputes alpha along the row: the
   update reports a disagreement between the two as a loss of accuracy.
   U's lines therefore have room to grow: an update that outgrows a
   line's room moves the line to its pool's top with twice the room,
   and a full pool doubles.  After t updates
   B^-1 = Q U^-1 R_t ... R_1 L^-1 P.

   All elimination storage lives in the calling domain's [workspace],
   reused across calls; the factors are written into the arrays of the
   factorization they replace, which grow only when a larger basis or
   more fill needs it, so a solver refactorizing its basis allocates
   nothing in the steady state. *)

(* m lines (the rows or the columns of a factor): line i is entries
   [first.(i), first.(i) + len.(i)) of the pools [idx]/[value], with
   [room.(i)] slots reserved there.  A factorization lays the lines out
   tight, in label order; an update moves a line that outgrows its room
   to [top]. *)
type lines = {
  mutable first : int array;
  mutable len : int array;
  mutable room : int array;
  mutable idx : int array;
  mutable value : float array;
  mutable top : int;              (* first free pool slot *)
  mutable live : int;             (* entries of all lines *)
}

type t = {
  mutable m : int;
  lcol : lines;                   (* L by columns: rows > k of column k *)
  lrow : lines;                   (* L by rows, each by ascending label *)
  urow : lines;                   (* U by rows: the columns after row k;
                                     only btran's search reads it, its
                                     values just follow [ucol]'s *)
  ucol : lines;                   (* U by columns *)
  mutable upiv : float array;     (* diagonal of U, by label *)
  mutable rowperm : int array;    (* label -> original constraint row *)
  mutable colperm : int array;    (* label -> basis position *)
  mutable rowinv : int array;     (* original constraint row -> label *)
  mutable colinv : int array;     (* basis position -> label *)
  (* U's pivot order: the labels of positions [0, nord) of [uord], -1
     at a position an update vacated; [upos] is its inverse *)
  mutable uord : int array;
  mutable upos : int array;
  mutable nord : int;
  (* the row etas, oldest first: eta e changes entry [eta_k.(e)] by the
     multipliers at [eta_start.(e), eta_start.(e + 1)) of the pools *)
  mutable nupd : int;
  mutable eta_k : int array;
  mutable eta_start : int array;
  mutable eta_idx : int array;
  mutable eta_val : float array;
  (* the spike kept by the last [ftran ~keep:true], [nspike] < 0 when
     none, and the U stage z of the last [btran ~keep:true] of a vector
     with one nonzero, [kept_rhs], at label [kept] (-1 when none) *)
  mutable nspike : int;
  mutable spike_idx : int array;
  mutable spike_val : float array;
  mutable kept : int;
  mutable kept_rhs : float;
  mutable nkept : int;
  mutable kept_idx : int array;
  mutable kept_val : float array;
  mutable factor_nnz : int;       (* [nnz] when last factored *)
  mutable applications : int;     (* row etas applied by solves *)
}

let abs_tol = 1e-12
let tau = 0.1
let search_cols = 8

(* The relative disagreement between the column's and the row's pivot
   above which an update reports a loss of accuracy. *)
let update_tol = 1e-8

(* An entry of a solve's intermediate vector, or of a btran's result, no
   larger than this is round-off of cancelled terms (on the scaled
   models the simplex solves): it is dropped, so that it neither grows U
   through a spike nor spreads through the rest of the solve and the
   next one's reach.  The U stage of a btran kept for an update drops
   relative to its root entry z_k instead, when that is below 1: the
   update needs the ratios z_j / z_k, whatever the scale of U. *)
let drop_tol = 1e-14

let no_lines () =
  { first = [||]; len = [||]; room = [||]; idx = [||]; value = [||];
    top = 0; live = 0 }

let empty () =
  {
    m = 0;
    lcol = no_lines (); lrow = no_lines (); urow = no_lines ();
    ucol = no_lines ();
    upiv = [||]; rowperm = [||]; colperm = [||]; rowinv = [||];
    colinv = [||];
    uord = [||]; upos = [||]; nord = 0;
    nupd = 0; eta_k = [||]; eta_start = [| 0 |]; eta_idx = [||];
    eta_val = [||];
    nspike = -1; spike_idx = [||]; spike_val = [||];
    kept = -1; kept_rhs = 0.; nkept = 0; kept_idx = [||]; kept_val = [||];
    factor_nnz = 0; applications = 0;
  }

let size t = t.m
let nnz t = t.m + t.lcol.live + t.urow.live + t.eta_start.(t.nupd)
let factor_nnz t = t.factor_nnz
let updates t = t.nupd
let row_eta_applications t = t.applications

(* Per-label arrays of at least [n] entries: [a] itself when it has
   them (a reused factorization's, possibly longer), else fresh ones. *)
let at_least_ints a n = if Array.length a >= n then a else Array.make n 0

let at_least_floats a n =
  if Array.length a >= n then a else Array.create_float n

(* Lines [l] for [m] labels with pools of at least [cap] slots, all
   empty. *)
let fit l m cap =
  l.first <- at_least_ints l.first m;
  l.len <- at_least_ints l.len m;
  l.room <- at_least_ints l.room m;
  if Array.length l.idx < cap then begin
    l.idx <- Array.make (cap + (cap / 4)) 0;
    l.value <- Array.create_float (cap + (cap / 4))
  end;
  Array.fill l.len 0 m 0;
  Array.fill l.room 0 m 0;
  Array.fill l.first 0 m 0;
  l.top <- 0;
  l.live <- 0

(* The per-label arrays of [t] for m labels, the pivot order the
   identity, no row etas and nothing kept. *)
let size_for t m =
  t.m <- m;
  t.upiv <- at_least_floats t.upiv m;
  t.rowperm <- at_least_ints t.rowperm m;
  t.colperm <- at_least_ints t.colperm m;
  t.rowinv <- at_least_ints t.rowinv m;
  t.colinv <- at_least_ints t.colinv m;
  t.uord <- at_least_ints t.uord (2 * m);
  t.upos <- at_least_ints t.upos m;
  for k = 0 to m - 1 do
    t.uord.(k) <- k;
    t.upos.(k) <- k
  done;
  t.nord <- m;
  t.nupd <- 0;
  t.nspike <- -1;
  t.kept <- -1;
  t.spike_idx <- at_least_ints t.spike_idx m;
  t.spike_val <- at_least_floats t.spike_val m;
  t.kept_idx <- at_least_ints t.kept_idx m;
  t.kept_val <- at_least_floats t.kept_val m

(* Room for the updates of U's m lines: half the fresh entries again
   plus four per line, before a pool first doubles. *)
let u_room nnz m = nnz + (nnz / 2) + (4 * m)

let set_identity t m =
  size_for t m;
  fit t.lcol m 0;
  fit t.lrow m 0;
  fit t.urow m (u_room 0 m);
  fit t.ucol m (u_room 0 m);
  for k = 0 to m - 1 do
    t.upiv.(k) <- 1.;
    t.rowperm.(k) <- k;
    t.colperm.(k) <- k;
    t.rowinv.(k) <- k;
    t.colinv.(k) <- k
  done;
  t.factor_nnz <- m

let identity m =
  let t = empty () in
  set_identity t m;
  t

let copy_lines l m =
  {
    first = Array.sub l.first 0 m;
    len = Array.sub l.len 0 m;
    room = Array.sub l.room 0 m;
    idx = Array.sub l.idx 0 l.top;
    value = Array.sub l.value 0 l.top;
    top = l.top;
    live = l.live;
  }

let copy t =
  let m = t.m and used = t.eta_start.(t.nupd) in
  {
    m;
    lcol = copy_lines t.lcol m;
    lrow = copy_lines t.lrow m;
    urow = copy_lines t.urow m;
    ucol = copy_lines t.ucol m;
    upiv = Array.sub t.upiv 0 m;
    rowperm = Array.sub t.rowperm 0 m;
    colperm = Array.sub t.colperm 0 m;
    rowinv = Array.sub t.rowinv 0 m;
    colinv = Array.sub t.colinv 0 m;
    uord = Array.sub t.uord 0 (max t.nord (2 * m));
    upos = Array.sub t.upos 0 m;
    nord = t.nord;
    nupd = t.nupd;
    eta_k = Array.sub t.eta_k 0 t.nupd;
    eta_start = Array.sub t.eta_start 0 (t.nupd + 1);
    eta_idx = Array.sub t.eta_idx 0 used;
    eta_val = Array.sub t.eta_val 0 used;
    nspike = -1;
    spike_idx = Array.make m 0;
    spike_val = Array.create_float m;
    kept = -1;
    kept_rhs = 0.;
    nkept = 0;
    kept_idx = Array.make m 0;
    kept_val = Array.create_float m;
    factor_nnz = t.factor_nnz;
    applications = t.applications;
  }

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


(* ------------------------------------------------------------------ *)
(* Updating lines                                                      *)
(* ------------------------------------------------------------------ *)

(* Make [need] free slots at the pool top of [l], doubling the pools
   when they are full. *)
let reserve l need =
  let cap = Array.length l.idx in
  if l.top + need > cap then begin
    let cap = max (2 * cap) (l.top + need) in
    let idx = Array.make cap 0 and value = Array.create_float cap in
    Array.blit l.idx 0 idx 0 l.top;
    Array.blit l.value 0 value 0 l.top;
    l.idx <- idx;
    l.value <- value
  end

(* Move line [i] to the pool top with [room] slots. *)
let relocate l i room =
  reserve l room;
  let f = l.first.(i) and n = l.len.(i) and top = l.top in
  Array.blit l.idx f l.idx top n;
  Array.blit l.value f l.value top n;
  l.first.(i) <- top;
  l.room.(i) <- room;
  l.top <- top + room

let append l i j v =
  let n = l.len.(i) in
  if n = l.room.(i) then relocate l i (max 4 (2 * n));
  let p = l.first.(i) + n in
  l.idx.(p) <- j;
  l.value.(p) <- v;
  l.len.(i) <- n + 1;
  l.live <- l.live + 1

(* Drop the entry at index [j] from line [i], keeping the order of the
   others. *)
let remove l i j =
  let f = l.first.(i) and n = l.len.(i) in
  let idx = l.idx and value = l.value in
  let e = ref f in
  while !e < f + n && idx.(!e) <> j do
    incr e
  done;
  if !e < f + n then begin
    for p = !e to f + n - 2 do
      idx.(p) <- idx.(p + 1);
      value.(p) <- value.(p + 1)
    done;
    l.len.(i) <- n - 1;
    l.live <- l.live - 1
  end

(* Empty line [i]. *)
let clear l i =
  l.live <- l.live - l.len.(i);
  l.len.(i) <- 0

(* Lay out [into] tight, line k holding the staged entries
   [start.{k}, start.{k+1}) of [sidx]/[sval] with their indices remapped
   through [inv] into pivot order, and the transpose of those lines in
   [tinto]: line [i] of the transpose, [count i] entries long, lists the
   lines holding an entry at [i], in ascending order, with those
   entries.  Both pools get at least [cap] slots.  [pos] is m ints of
   scratch. *)
let lay_out (pos : ints) m (start : ints) (sidx : ints) (sval : Vec.t) inv
    count ~cap ~into ~tinto =
  let total = start.{m} in
  fit into m cap;
  fit tinto m cap;
  let p = ref 0 in
  for k = 0 to m - 1 do
    let n = start.{k + 1} - start.{k} in
    into.first.(k) <- start.{k};
    into.len.(k) <- n;
    into.room.(k) <- n;
    let c = count k in
    tinto.first.(k) <- !p;
    tinto.len.(k) <- c;
    tinto.room.(k) <- c;
    pos.{k} <- !p;
    p := !p + c
  done;
  for k = 0 to m - 1 do
    for e = start.{k} to start.{k + 1} - 1 do
      let i = inv.(sidx.{e}) and v = sval.{e} in
      into.idx.(e) <- i;
      into.value.(e) <- v;
      let q = pos.{i} in
      tinto.idx.(q) <- k;
      tinto.value.(q) <- v;
      pos.{i} <- q + 1
    done
  done;
  into.top <- total;
  into.live <- total;
  tinto.top <- total;
  tinto.live <- total

exception Singular

let refactor t (cols_idx : int array array) (cols_val : float array array)
    (basis : int array) =
  let m = Array.length basis in
  if m = 0 then begin
    set_identity t 0;
    true
  end
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
    (* The factors are staged in the workspace, so [t] is untouched when
       the basis turns out singular. *)
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
    | exception Singular -> false
    | () ->
      lstart.{m} <- !ltop;
      ustart.{m} <- !utop;
      size_for t m;
      let rowperm = t.rowperm and colperm = t.colperm in
      for k = 0 to m - 1 do
        rowperm.(k) <- w.rperm.{k};
        colperm.(k) <- w.cperm.{k};
        t.rowinv.(w.rperm.{k}) <- k;
        t.colinv.(w.cperm.{k}) <- k;
        t.upiv.(k) <- w.piv.{k}
      done;
      (* Remap stored indices into pivot-order space: L rows through the
         row permutation, U columns through the column permutation.  All
         remapped indices are > k (rows/columns still active at step k
         are eliminated later), which is what the solves rely on.  The
         transposes' line lengths are the counts kept during the
         elimination. *)
      lay_out w.tpos m lstart w.lbi w.lbv t.rowinv
        (fun i -> w.lrcnt.{rowperm.(i)})
        ~cap:!ltop ~into:t.lcol ~tinto:t.lrow;
      lay_out w.tpos m ustart w.ubi w.ubv t.colinv
        (fun j -> w.uccnt.{colperm.(j)})
        ~cap:(u_room !utop m) ~into:t.urow ~tinto:t.ucol;
      t.factor_nnz <- nnz t;
      true
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
   the out-edges of line [j] of [g] (Gilbert and Peierls' depth-first
   search, without recursion).  It is stored in [s.order] at [top, m),
   in topological order: a node comes before every node it has an edge
   to.  Returns [top]. *)
let reach s m g roots nroots =
  let order = s.order and first = g.first and len = g.len and gidx = g.idx in
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp and visit = s.visit in
  let stack = s.stack and edge = s.edge in
  let top = ref m in
  for r = 0 to nroots - 1 do
    let root = roots.(r) in
    if visit.{root} <> stamp then begin
      visit.{root} <- stamp;
      stack.{0} <- root;
      edge.{0} <- first.(root);
      let sp = ref 0 in
      while !sp >= 0 do
        let j = stack.{!sp} in
        let stop = first.(j) + len.(j) in
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
          edge.{!sp} <- first.(i)
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

(* When every node is a root the reach is every node, and a triangular
   factor's pivot order, or its reverse, is a topological order: no
   search runs.  L's pivot order is its label order; U's is [uord]. *)
let label_order s m ~ascending =
  for p = 0 to m - 1 do
    s.order.{p} <- (if ascending then p else m - 1 - p)
  done;
  0

let pivot_order s t =
  let order = s.order and uord = t.uord in
  let c = ref 0 in
  for p = 0 to t.nord - 1 do
    let k = uord.(p) in
    if k >= 0 then begin
      order.{!c} <- k;
      incr c
    end
  done;
  0

(* Both solves run in three stages: a triangular one, the row etas and
   another triangular one.  Each triangular stage but ftran's U stage
   finds the reach of its right-hand side's nonzeros, then computes
   every entry of the reach as a gather over one stored line, in
   topological order.  A gather takes its terms in the line's stored
   order, so the result does not depend on the order the search found
   the reach in.  The lines of a fresh factorization's L rows and U
   columns are sorted by label, so on a fresh factorization the first
   stage adds its terms in the order the column-oriented forward
   substitution would scatter them, which skips a term only when it is
   zero; its result is then the same, but for the sign of a zero, as the
   dense substitution over all m steps.

   Ftran's U stage is that column-oriented substitution itself, over
   U's pivot order: an entering column's solve is dense enough (a fifth
   of m on the paper's models) that visiting every label costs less
   than searching for a reach, and on 0/±1 data so much cancels that
   the reach is several times the result; the substitution skips a
   label whose entry cancelled, where a gather would still read its
   line.  It runs the same way whatever the right-hand side's list, so
   a listed right-hand side still solves as the full pattern does. *)

(* Move the n listed entries of [b] into [s.y], through [perm] (original
   index -> label), zeroing them in [b]; keep in [nz] the labels of the
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

(* Keep in [nz] the labels of the reach at [top, m) whose entries are
   above [tol], zeroing the others; return their count. *)
let keep_nonzero s m top nz ~tol =
  let y = s.y and order = s.order in
  let c = ref 0 in
  for p = top to m - 1 do
    let k = order.{p} in
    if Float.abs y.{k} > tol then begin
      nz.(!c) <- k;
      incr c
    end
    else y.{k} <- 0.
  done;
  !c

(* Move the entries above [tol] of the reach at [top, m) from [s.y] into
   [b], through [perm] (label -> original index), listing them in [nz];
   [s.y] is left all zero.  Returns their count. *)
let store s m top (b : Vec.t) perm nz ~tol =
  let y = s.y and order = s.order in
  let c = ref 0 in
  for p = top to m - 1 do
    let k = order.{p} in
    let v = y.{k} in
    y.{k} <- 0.;
    if Float.abs v > tol then begin
      let i = perm.(k) in
      b.{i} <- v;
      nz.(!c) <- i;
      incr c
    end
  done;
  !c

(* Stamp the [n] labels of [nz] as listed, so that a row-eta pass adds
   to [nz] only the labels it lacks. *)
let mark_listed s nz n =
  s.stamp <- s.stamp + 1;
  for e = 0 to n - 1 do
    s.visit.{nz.(e)} <- s.stamp
  done

(* y := R_t ... R_1 y: eta e sets y_k -= mu . y, a gather over its
   multipliers.  Returns the new length of [nz]. *)
let row_etas_fwd t s nz n =
  mark_listed s nz n;
  let y = s.y and visit = s.visit and stamp = s.stamp in
  let start = t.eta_start and idx = t.eta_idx and value = t.eta_val in
  let n = ref n in
  for u = 0 to t.nupd - 1 do
    let acc = ref 0. in
    for e = start.(u) to start.(u + 1) - 1 do
      acc := !acc +. (value.(e) *. y.{idx.(e)})
    done;
    if !acc <> 0. then begin
      let k = t.eta_k.(u) in
      y.{k} <- y.{k} -. !acc;
      if visit.{k} <> stamp then begin
        visit.{k} <- stamp;
        nz.(!n) <- k;
        incr n
      end
    end
  done;
  t.applications <- t.applications + t.nupd;
  !n

(* y := R_1^T ... R_t^T y, newest first: eta e sets y_j -= mu_j y_k, a
   scatter that only runs when y_k is nonzero. *)
let row_etas_bwd t s nz n =
  mark_listed s nz n;
  let y = s.y and visit = s.visit and stamp = s.stamp in
  let start = t.eta_start and idx = t.eta_idx and value = t.eta_val in
  let n = ref n in
  for u = t.nupd - 1 downto 0 do
    let yk = y.{t.eta_k.(u)} in
    if yk <> 0. then begin
      for e = start.(u) to start.(u + 1) - 1 do
        let j = idx.(e) in
        y.{j} <- y.{j} -. (value.(e) *. yk);
        if visit.{j} <> stamp then begin
          visit.{j} <- stamp;
          nz.(!n) <- j;
          incr n
        end
      done;
      t.applications <- t.applications + 1
    end
  done;
  !n

(* Forward through L (row gathers), in place in [s.y]; returns the
   nonzeros' count, listed in [nz]. *)
let l_forward t s nz n ~full =
  let m = t.m and y = s.y and order = s.order in
  let top = if full then label_order s m ~ascending:true else reach s m t.lcol nz n in
  let first = t.lrow.first and len = t.lrow.len in
  let idx = t.lrow.idx and value = t.lrow.value in
  for p = top to m - 1 do
    let i = order.{p} in
    let acc = ref y.{i} in
    let f = first.(i) in
    for e = f to f + len.(i) - 1 do
      acc := !acc -. (value.(e) *. y.{idx.(e)})
    done;
    y.{i} <- !acc
  done;
  keep_nonzero s m top nz ~tol:drop_tol

(* Backward through U by columns, over U's pivot order from its last
   label: a label whose entry is at most [tol] is zeroed and skipped,
   any other is divided by its pivot and scattered up its column.  The
   labels of the nonzeros go to [s.order] at [top, m); returns [top]. *)
let u_backward t s ~tol =
  let m = t.m and y = s.y and order = s.order and uord = t.uord in
  let first = t.ucol.first and len = t.ucol.len in
  let idx = t.ucol.idx and value = t.ucol.value and upiv = t.upiv in
  let top = ref m in
  for p = t.nord - 1 downto 0 do
    let k = uord.(p) in
    if k >= 0 then begin
      let v = y.{k} in
      if Float.abs v > tol then begin
        let x = v /. upiv.(k) in
        y.{k} <- x;
        decr top;
        order.{!top} <- k;
        let f = first.(k) in
        for e = f to f + len.(k) - 1 do
          let r = idx.(e) in
          y.{r} <- y.{r} -. (value.(e) *. x)
        done
      end
      else if v <> 0. then y.{k} <- 0.
    end
  done;
  !top

(* Forward through U^T (column gathers); returns the nonzeros' count,
   listed in [nz], entries at most [tol] dropped. *)
let u_transposed t s nz n ~full ~tol =
  let m = t.m and y = s.y and order = s.order in
  let top = if full then pivot_order s t else reach s m t.urow nz n in
  let first = t.ucol.first and len = t.ucol.len in
  let idx = t.ucol.idx and value = t.ucol.value and upiv = t.upiv in
  for p = top to m - 1 do
    let j = order.{p} in
    let acc = ref y.{j} in
    let f = first.(j) in
    for e = f to f + len.(j) - 1 do
      acc := !acc -. (value.(e) *. y.{idx.(e)})
    done;
    y.{j} <- !acc /. upiv.(j)
  done;
  keep_nonzero s m top nz ~tol

(* Backward through L^T (column gathers); returns the reach's [top]. *)
let l_transposed t s nz n ~full =
  let m = t.m and y = s.y and order = s.order in
  let top = if full then label_order s m ~ascending:false else reach s m t.lrow nz n in
  let first = t.lcol.first and len = t.lcol.len in
  let idx = t.lcol.idx and value = t.lcol.value in
  for p = top to m - 1 do
    let k = order.{p} in
    let acc = ref y.{k} in
    let f = first.(k) in
    for e = f to f + len.(k) - 1 do
      acc := !acc -. (value.(e) *. y.{idx.(e)})
    done;
    y.{k} <- !acc
  done;
  top

(* Solve B w = b:  B^-1 = Q U^-1 R_t ... R_1 L^-1 P. *)
let ftran ?(keep = false) t (b : Vec.t) nz n =
  let m = t.m in
  let s = scratch m in
  let full = n = m in
  let n = load s b t.rowinv nz n in
  let n = l_forward t s nz n ~full in
  let n = if t.nupd > 0 then row_etas_fwd t s nz n else n in
  if keep then begin
    let y = s.y and c = ref 0 in
    for e = 0 to n - 1 do
      let k = nz.(e) in
      if Float.abs y.{k} > drop_tol then begin
        t.spike_idx.(!c) <- k;
        t.spike_val.(!c) <- y.{k};
        incr c
      end
    done;
    t.nspike <- !c
  end;
  let top = u_backward t s ~tol:drop_tol in
  store s m top b t.colperm nz ~tol:0.

(* The drop tolerance of the U stage of a btran kept for an update at
   label [k], whose right-hand side is [rhs] there: relative to z_k. *)
let kept_tol t k rhs = drop_tol *. Float.min 1. (Float.abs (rhs /. t.upiv.(k)))

(* Keep the U stage [z] of a right-hand side whose one nonzero, [rhs],
   is at label [k]: its labels [nz.(0 .. n-1)] and their values in
   [s.y]. *)
let keep_row t s k rhs nz n =
  let y = s.y in
  for e = 0 to n - 1 do
    let j = nz.(e) in
    t.kept_idx.(e) <- j;
    t.kept_val.(e) <- y.{j}
  done;
  t.nkept <- n;
  t.kept <- k;
  t.kept_rhs <- rhs

(* Solve B^T v = u:  B^-T = P^T L^-T R_1^T ... R_t^T U^-T Q^T. *)
let btran ?(keep = false) t (u : Vec.t) nz n =
  let m = t.m in
  let s = scratch m in
  let full = n = m in
  let n = load s u t.colinv nz n in
  let root = if n = 1 then nz.(0) else -1 in
  let keep = keep && root >= 0 in
  let rhs = if keep then s.y.{root} else 0. in
  let tol = if keep then kept_tol t root rhs else drop_tol in
  let n = u_transposed t s nz n ~full ~tol in
  if keep then keep_row t s root rhs nz n;
  let n = if t.nupd > 0 then row_etas_bwd t s nz n else n in
  let top = l_transposed t s nz n ~full in
  store s m top u t.rowperm nz ~tol:drop_tol

(* Drop the holes of U's pivot order. *)
let squeeze_order t =
  let c = ref 0 in
  for p = 0 to t.nord - 1 do
    let k = t.uord.(p) in
    if k >= 0 then begin
      t.uord.(!c) <- k;
      t.upos.(k) <- !c;
      incr c
    end
  done;
  t.nord <- !c

(* Room for one more row eta of [len] multipliers. *)
let reserve_eta t len =
  let u = t.nupd in
  if u + 2 > Array.length t.eta_start then begin
    let cap = max 16 (2 * (u + 2)) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.eta_k <- grow t.eta_k;
    t.eta_start <- grow t.eta_start
  end;
  let top = t.eta_start.(u) in
  if top + len > Array.length t.eta_idx then begin
    let cap = max (top + len) (max 64 (2 * Array.length t.eta_idx)) in
    let idx = Array.make cap 0 and value = Array.create_float cap in
    Array.blit t.eta_idx 0 idx 0 top;
    Array.blit t.eta_val 0 value 0 top;
    t.eta_idx <- idx;
    t.eta_val <- value
  end

let replace t p alpha =
  if t.nspike < 0 then invalid_arg "Sparse_lu.replace: no spike kept";
  let m = t.m in
  let k = t.colinv.(p) in
  let s = scratch m in
  let y = s.y in
  if t.kept <> k then begin
    (* the U stage of the btran of e_k, as [btran ~keep:true] runs it *)
    let nz = t.kept_idx in
    y.{k} <- 1.;
    nz.(0) <- k;
    let n = u_transposed t s nz 1 ~full:(m = 1) ~tol:(kept_tol t k 1.) in
    keep_row t s k 1. nz n;
    for e = 0 to n - 1 do
      y.{nz.(e)} <- 0.
    done
  end;
  let nkept = t.nkept and kidx = t.kept_idx and kval = t.kept_val in
  let nspike = t.nspike and sidx = t.spike_idx and sval = t.spike_val in
  (* the pivot along the row: z . s / (z_k u_kk), z_k being the
     right-hand side over u_kk (no other entry reaches it) *)
  for e = 0 to nspike - 1 do
    y.{sidx.(e)} <- sval.(e)
  done;
  let zk = t.kept_rhs /. t.upiv.(k) in
  let dot = ref (zk *. y.{k}) in
  for e = 0 to nkept - 1 do
    let j = kidx.(e) in
    if j <> k then dot := !dot +. (kval.(e) *. y.{j})
  done;
  for e = 0 to nspike - 1 do
    y.{sidx.(e)} <- 0.
  done;
  let alpha_row = !dot /. (zk *. t.upiv.(k)) in
  (* column k leaves the rows, row k the columns *)
  let ur = t.urow and uc = t.ucol in
  for e = uc.first.(k) to uc.first.(k) + uc.len.(k) - 1 do
    remove ur uc.idx.(e) k
  done;
  clear uc k;
  for e = ur.first.(k) to ur.first.(k) + ur.len.(k) - 1 do
    remove uc ur.idx.(e) k
  done;
  clear ur k;
  (* the spike is column k *)
  let off = ref 0 in
  for e = 0 to nspike - 1 do
    if sidx.(e) <> k then incr off
  done;
  if !off > uc.room.(k) then relocate uc k !off;
  for e = 0 to nspike - 1 do
    let r = sidx.(e) in
    if r <> k then begin
      append uc k r sval.(e);
      append ur r k sval.(e)
    end
  done;
  (* row k's elimination by the rows after it: mu_j = -z_j / z_k *)
  reserve_eta t nkept;
  let u = t.nupd in
  let q = ref t.eta_start.(u) in
  for e = 0 to nkept - 1 do
    let j = kidx.(e) in
    if j <> k then begin
      t.eta_idx.(!q) <- j;
      t.eta_val.(!q) <- -.(kval.(e) /. zk);
      incr q
    end
  done;
  t.eta_k.(u) <- k;
  t.eta_start.(u + 1) <- !q;
  t.nupd <- u + 1;
  t.upiv.(k) <- t.upiv.(k) *. alpha;
  (* label k moves to the end of the pivot order *)
  if t.nord = Array.length t.uord then squeeze_order t;
  t.uord.(t.upos.(k)) <- -1;
  t.uord.(t.nord) <- k;
  t.upos.(k) <- t.nord;
  t.nord <- t.nord + 1;
  t.nspike <- -1;
  t.kept <- -1;
  Float.abs (alpha_row -. alpha)
  <= update_tol *. Float.max (Float.abs alpha) (Float.abs alpha_row)
