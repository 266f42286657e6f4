(* Incremental evaluation of objective (6).  See delta_cost.mli for the
   contract; the invariants maintained here mirror Cost_model exactly:

     quad.(t)   = Σ_a c1.(t).(a) · [placed.(a).(home t)]
     workq.(t)  = Σ_a c3.(t).(a) · [placed.(a).(home t)]
     work.(s)   = Σ_{t at s} workq.(t) + Σ_a c4.(a) · [placed.(a).(s)]
     cost_quad  = Σ_t quad.(t)
     cost_lin   = Σ_a c2.(a) · repl.(a)
     lat.wq_rc.(q) = Σ_{a ∈ attrs q} (repl.(a) − [placed.(a).(home q)])
     lat_total  = Σ_{write q, wq_rc > 0} f_q          (ψ_q of Appendix A)

   so that objective (6) = λ·(cost_quad + cost_lin)
                           + (1−λ)·max_s work.(s) [+ λ·pl·lat_total].

   The site aggregates the annealer's exact sub-steps read, site-major:

     coef.(s).(a)   = c2(a) + Σ_{t at s} c1(t,a)
     forced.(s).(a) = #{t at s : φ(t,a)}
     score.(s).(t)  = Σ_{a placed at s} c1(t,a)
     miss.(s).(t)   = #{a : φ(t,a), a not placed at s}

   A flip of [a] on [s] changes score.(s) and miss.(s); an assign of [t]
   changes coef and forced on the old and the new home.  A [Disjoint]
   evaluator keeps coef only: the disjoint proposal reads nothing else,
   so its flips and assigns skip the other three walks.

   Both moves walk compressed lines of c1 and c3 (the entries where
   either is nonzero): a flip of [a] the column of [a] (cols), an assign
   of [tx] the row of [tx] (rows), so each costs O(nonzeros of the line)
   rather than O(transactions) or O(attributes).  The terms left out
   are zeros, and a zero added to a cache entry or running sum changes
   nothing, because none of them is ever -0: they start at +0, and a
   round-to-nearest sum of nonzero terms that cancels gives +0.  So
   every cache value is bit-identical to a dense walk's; coef starts at
   c2(a) and can differ from a dense walk only in the sign of a zero,
   which no comparison can see.  A flip adds its terms to cost_quad and
   work.{s} in the order of the site's transaction list
   (site_txns/site_len/pos, swap-remove), by sorting the column's hits
   on [pos]. *)

type lat = {
  pl : float;
  wq_txn : int array;           (* home transaction of each write query *)
  wq_freq : float array;
  wq_attrs : int array array;
  wq_rc : int array;            (* remote-replica count, ψ_q = rc > 0 *)
  attr_wqs : int array array;   (* attr -> write queries accessing it *)
  txn_wqs : int array array;    (* txn -> its write queries *)
}

(* The running sums live in an all-float record, whose fields OCaml
   stores unboxed: a store to a mutable float field of a mixed record
   allocates a fresh box, and the moves update these sums every time. *)
type sums = {
  mutable cost_quad : float;
  mutable cost_lin : float;
  mutable lat_total : float;
}

type mode = Replicated | Disjoint

type t = {
  stats : Stats.t;
  full : bool;                  (* score, miss and forced kept *)
  lambda : float;
  part : Partitioning.t;
  quad : Vec.t;
  workq : Vec.t;
  work : Vec.t;
  sums : sums;
  repl : int array;
  site_txns : int array array;
  site_len : int array;
  pos : int array;
  rows : Vec.sparse;            (* c1, c3 by transaction *)
  cols : Vec.sparse;            (* c1, c3 by attribute *)
  hits : int array;             (* a flip's column entries homed at s *)
  reads : int array array;      (* txn -> attrs with φ(t,a), ascending *)
  readers : int array array;    (* attr -> txns with φ(t,a), ascending;
                                   [||] unless [full] *)
  coef : float array array;
  forced : int array array;     (* these three are [||] unless [full] *)
  score : float array array;
  miss : int array array;
  lat : lat option;
  (* Undo journal: two ints per primitive in [jprims] — [(a, s)] for a
     flip of attribute [a] on site [s], [(-tx - 1, s_old)] for an assign
     of transaction [tx] that came from [s_old] — and the [jprims] height
     at which each of the [jlen] un-committed moves starts. *)
  mutable jprims : int array;
  mutable jtop : int;
  mutable jstarts : int array;
  mutable jlen : int;
  mutable nmoves : int;
}

let partitioning t = t.part
let reads t = t.reads
let coef t = t.coef

let kept name t agg =
  if t.full then agg
  else invalid_arg ("Delta_cost." ^ name ^ ": not kept by a Disjoint evaluator")

let forced t = kept "forced" t t.forced
let score t = kept "score" t t.score
let miss t = kept "miss" t t.miss

let moves_applied t = t.nmoves
let replicas t a = t.repl.(a)
let cost t = t.sums.cost_quad +. t.sums.cost_lin

let[@inline] max_site_work t =
  (* same fold as Cost_model.max_site_work: max over sites, floor 0 *)
  let m = ref 0. in
  for s = 0 to Vec.length t.work - 1 do
    m := Float.max !m t.work.{s}
  done;
  !m

let[@inline] objective t =
  let base =
    (t.lambda *. cost t) +. ((1. -. t.lambda) *. max_site_work t)
  in
  match t.lat with
  | None -> base
  | Some l -> base +. (t.lambda *. l.pl *. t.sums.lat_total)

(* ------------------------------------------------------------------ *)
(* Cache construction / resync                                         *)
(* ------------------------------------------------------------------ *)

(* [bucket n keys_of m]: for each key k < n, the items i < m (ascending)
   with k among [keys_of i]. *)
let bucket n keys_of m =
  let counts = Array.make n 0 in
  for i = 0 to m - 1 do
    List.iter (fun k -> counts.(k) <- counts.(k) + 1) (keys_of i)
  done;
  let out = Array.init n (fun k -> Array.make counts.(k) 0) in
  let fill = Array.make n 0 in
  for i = 0 to m - 1 do
    List.iter
      (fun k ->
         out.(k).(fill.(k)) <- i;
         fill.(k) <- fill.(k) + 1)
      (keys_of i)
  done;
  out

let make_lat (inst : Instance.t) pl =
  let wl = inst.Instance.workload in
  let nq = Workload.num_queries wl in
  let writes = ref [] in
  for q = nq - 1 downto 0 do
    if Workload.is_write (Workload.query wl q) then writes := q :: !writes
  done;
  let wq = Array.of_list !writes in
  let wq_txn = Array.map (Workload.txn_of_query wl) wq in
  let wq_freq = Array.map (fun q -> (Workload.query wl q).Workload.freq) wq in
  let wq_attrs =
    Array.map (fun q -> Array.of_list (Workload.query wl q).Workload.attrs) wq
  in
  let na = Instance.num_attrs inst and nt = Instance.num_transactions inst in
  let nw = Array.length wq in
  let attr_wqs = bucket na (fun i -> Array.to_list wq_attrs.(i)) nw in
  let txn_wqs = bucket nt (fun i -> [ wq_txn.(i) ]) nw in
  {
    pl;
    wq_txn;
    wq_freq;
    wq_attrs;
    wq_rc = Array.make nw 0;
    attr_wqs;
    txn_wqs;
  }

(* rc of one write query, from scratch, for an (assumed) home site. *)
let fresh_rc t (l : lat) i home =
  let attrs = l.wq_attrs.(i) and placed = t.part.Partitioning.placed in
  let rc = ref 0 in
  for k = 0 to Array.length attrs - 1 do
    let a = attrs.(k) in
    rc := !rc + t.repl.(a) - (if placed.(a).(home) then 1 else 0)
  done;
  !rc

let rebuild t =
  let stats = t.stats and part = t.part in
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = part.Partitioning.num_sites in
  let rows = t.rows and cols = t.cols in
  let row_c1 = rows.Vec.vals.(0) and row_c3 = rows.Vec.vals.(1) in
  let col_c1 = cols.Vec.vals.(0) in
  Vec.fill t.work 0.;
  Array.fill t.site_len 0 ns 0;
  t.sums.cost_quad <- 0.;
  t.sums.cost_lin <- 0.;
  for s = 0 to ns - 1 do
    Array.blit stats.Stats.c2 0 t.coef.(s) 0 na;
    if t.full then begin
      Array.fill t.forced.(s) 0 na 0;
      Array.fill t.score.(s) 0 nt 0.;
      for tx = 0 to nt - 1 do
        t.miss.(s).(tx) <- Array.length t.reads.(tx)
      done
    end
  done;
  for tx = 0 to nt - 1 do
    let home = part.Partitioning.txn_site.(tx) in
    let cf = t.coef.(home) in
    let q = ref 0. and w = ref 0. in
    for k = rows.Vec.ptr.(tx) to rows.Vec.ptr.(tx + 1) - 1 do
      let a = rows.Vec.idx.(k) in
      cf.(a) <- cf.(a) +. row_c1.{k};
      if part.Partitioning.placed.(a).(home) then begin
        q := !q +. row_c1.{k};
        w := !w +. row_c3.{k}
      end
    done;
    if t.full then begin
      let fc = t.forced.(home) in
      Array.iter (fun a -> fc.(a) <- fc.(a) + 1) t.reads.(tx)
    end;
    t.quad.{tx} <- !q;
    t.workq.{tx} <- !w;
    t.sums.cost_quad <- t.sums.cost_quad +. !q;
    t.work.{home} <- t.work.{home} +. !w;
    t.pos.(tx) <- t.site_len.(home);
    t.site_txns.(home).(t.site_len.(home)) <- tx;
    t.site_len.(home) <- t.site_len.(home) + 1
  done;
  (* attribute outer, transaction inner: each score entry takes its c1
     terms in ascending attribute order *)
  for a = 0 to na - 1 do
    let row = part.Partitioning.placed.(a) in
    let r = ref 0 in
    for s = 0 to ns - 1 do
      if row.(s) then begin
        incr r;
        t.work.{s} <- t.work.{s} +. stats.Stats.c4.(a);
        if t.full then begin
          let sc = t.score.(s) in
          for k = cols.Vec.ptr.(a) to cols.Vec.ptr.(a + 1) - 1 do
            let tx = cols.Vec.idx.(k) in
            sc.(tx) <- sc.(tx) +. col_c1.{k}
          done;
          let m = t.miss.(s) in
          Array.iter (fun tx -> m.(tx) <- m.(tx) - 1) t.readers.(a)
        end
      end
    done;
    t.repl.(a) <- !r;
    t.sums.cost_lin <- t.sums.cost_lin +. (float_of_int !r *. stats.Stats.c2.(a))
  done;
  match t.lat with
  | None -> ()
  | Some l ->
    t.sums.lat_total <- 0.;
    for i = 0 to Array.length l.wq_rc - 1 do
      let rc = fresh_rc t l i part.Partitioning.txn_site.(l.wq_txn.(i)) in
      l.wq_rc.(i) <- rc;
      if rc > 0 then t.sums.lat_total <- t.sums.lat_total +. l.wq_freq.(i)
    done

let resync t = rebuild t

let create ?latency ?(mode = Replicated) (stats : Stats.t) ~lambda
    (part : Partitioning.t) =
  let full = mode = Replicated in
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = part.Partitioning.num_sites in
  let rows = Vec.compress_rows [| stats.Stats.c1; stats.Stats.c3 |] in
  let reads =
    Array.map
      (fun phi ->
         let out = ref [] in
         for a = na - 1 downto 0 do
           if phi.(a) then out := a :: !out
         done;
         Array.of_list !out)
      stats.Stats.phi
  in
  let t =
    {
      stats;
      full;
      lambda;
      part;
      quad = Vec.create nt;
      workq = Vec.create nt;
      work = Vec.create ns;
      sums = { cost_quad = 0.; cost_lin = 0.; lat_total = 0. };
      repl = Array.make na 0;
      site_txns = Array.init ns (fun _ -> Array.make nt 0);
      site_len = Array.make ns 0;
      pos = Array.make nt 0;
      rows;
      cols = Vec.transpose rows na;
      hits = Array.make nt 0;
      reads;
      readers =
        (if full then bucket na (fun tx -> Array.to_list reads.(tx)) nt
         else [||]);
      coef = Array.make_matrix ns na 0.;
      forced = (if full then Array.make_matrix ns na 0 else [||]);
      score = (if full then Array.make_matrix ns nt 0. else [||]);
      miss = (if full then Array.make_matrix ns nt 0 else [||]);
      lat = Option.map (fun (inst, pl) -> make_lat inst pl) latency;
      jprims = Array.make 64 0;
      jtop = 0;
      jstarts = Array.make 16 0;
      jlen = 0;
      nmoves = 0;
    }
  in
  rebuild t;
  t

(* ------------------------------------------------------------------ *)
(* Primitive moves                                                     *)
(* ------------------------------------------------------------------ *)

let set_rc t (l : lat) i rc' =
  if rc' > 0 <> (l.wq_rc.(i) > 0) then
    t.sums.lat_total <-
      t.sums.lat_total
      +. (if rc' > 0 then l.wq_freq.(i) else -.l.wq_freq.(i));
  l.wq_rc.(i) <- rc'

let prim_flip t a s =
  t.nmoves <- t.nmoves + 1;
  let stats = t.stats and part = t.part in
  let row = part.Partitioning.placed.(a) in
  let adding = not row.(s) in
  let sign = if adding then 1. else -1. in
  row.(s) <- adding;
  t.repl.(a) <- t.repl.(a) + (if adding then 1 else -1);
  t.sums.cost_lin <- t.sums.cost_lin +. (sign *. stats.Stats.c2.(a));
  (* one walk of the column: every transaction's score on [s], and the
     transactions homed at [s], by insertion into their order in the
     site's list *)
  let cols = t.cols and hits = t.hits and pos = t.pos in
  let c1 = cols.Vec.vals.(0) and c3 = cols.Vec.vals.(1) in
  let full = t.full in
  let sc = if full then t.score.(s) else [||] in
  let n = ref 0 in
  for k = cols.Vec.ptr.(a) to cols.Vec.ptr.(a + 1) - 1 do
    let tx = cols.Vec.idx.(k) in
    if full then sc.(tx) <- sc.(tx) +. (sign *. c1.{k});
    if part.Partitioning.txn_site.(tx) = s then begin
      let p = pos.(tx) and j = ref !n in
      while !j > 0 && pos.(cols.Vec.idx.(hits.(!j - 1))) > p do
        hits.(!j) <- hits.(!j - 1);
        decr j
      done;
      hits.(!j) <- k;
      incr n
    end
  done;
  let cq = ref t.sums.cost_quad
  and ws = ref (t.work.{s} +. (sign *. stats.Stats.c4.(a))) in
  for i = 0 to !n - 1 do
    let k = hits.(i) in
    let tx = cols.Vec.idx.(k) in
    let dq = sign *. c1.{k} in
    let dw = sign *. c3.{k} in
    t.quad.{tx} <- t.quad.{tx} +. dq;
    cq := !cq +. dq;
    t.workq.{tx} <- t.workq.{tx} +. dw;
    ws := !ws +. dw
  done;
  t.sums.cost_quad <- !cq;
  t.work.{s} <- !ws;
  let d = if adding then -1 else 1 in
  if full then begin
    let readers = t.readers.(a) and m = t.miss.(s) in
    for k = 0 to Array.length readers - 1 do
      let tx = readers.(k) in
      m.(tx) <- m.(tx) + d
    done
  end;
  match t.lat with
  | None -> ()
  | Some l ->
    (* rc = Σ repl − [placed at home]: both terms move together when the
       flipped site is the query's home, so only off-home flips count. *)
    let d = -d in
    let wqs = l.attr_wqs.(a) in
    for k = 0 to Array.length wqs - 1 do
      let i = wqs.(k) in
      if part.Partitioning.txn_site.(l.wq_txn.(i)) <> s then
        set_rc t l i (l.wq_rc.(i) + d)
    done

(* Returns [false] (and does nothing) when [tx] is already on [s]. *)
let prim_assign t tx s =
  let part = t.part in
  let s_old = part.Partitioning.txn_site.(tx) in
  if s_old = s then false
  else begin
    t.nmoves <- t.nmoves + 1;
    (* swap-remove from the old site's transaction list *)
    let lst = t.site_txns.(s_old) in
    let last = t.site_len.(s_old) - 1 in
    let i = t.pos.(tx) in
    let moved = lst.(last) in
    lst.(i) <- moved;
    t.pos.(moved) <- i;
    t.site_len.(s_old) <- last;
    let lst' = t.site_txns.(s) in
    t.pos.(tx) <- t.site_len.(s);
    lst'.(t.site_len.(s)) <- tx;
    t.site_len.(s) <- t.site_len.(s) + 1;
    part.Partitioning.txn_site.(tx) <- s;
    t.sums.cost_quad <- t.sums.cost_quad -. t.quad.{tx};
    t.work.{s_old} <- t.work.{s_old} -. t.workq.{tx};
    (* fresh row widths against the new home (exact, not incremental),
       and the row's c1 carried from the old home's coef to the new *)
    let placed = part.Partitioning.placed and rows = t.rows in
    let c1 = rows.Vec.vals.(0) and c3 = rows.Vec.vals.(1) in
    let cf_from = t.coef.(s_old) and cf_to = t.coef.(s) in
    let q = ref 0. and w = ref 0. in
    for k = rows.Vec.ptr.(tx) to rows.Vec.ptr.(tx + 1) - 1 do
      let a = rows.Vec.idx.(k) in
      cf_from.(a) <- cf_from.(a) -. c1.{k};
      cf_to.(a) <- cf_to.(a) +. c1.{k};
      if placed.(a).(s) then begin
        q := !q +. c1.{k};
        w := !w +. c3.{k}
      end
    done;
    t.quad.{tx} <- !q;
    t.workq.{tx} <- !w;
    t.sums.cost_quad <- t.sums.cost_quad +. !q;
    t.work.{s} <- t.work.{s} +. !w;
    if t.full then begin
      let fc_from = t.forced.(s_old) and fc_to = t.forced.(s) in
      let reads = t.reads.(tx) in
      for k = 0 to Array.length reads - 1 do
        let a = reads.(k) in
        fc_from.(a) <- fc_from.(a) - 1;
        fc_to.(a) <- fc_to.(a) + 1
      done
    end;
    (match t.lat with
     | None -> ()
     | Some l ->
       let wqs = l.txn_wqs.(tx) in
       for k = 0 to Array.length wqs - 1 do
         set_rc t l wqs.(k) (fresh_rc t l wqs.(k) s)
       done);
    true
  end

(* ------------------------------------------------------------------ *)
(* Journaled moves                                                     *)
(* ------------------------------------------------------------------ *)

let grow arr n =
  if n <= Array.length arr then arr
  else begin
    let bigger = Array.make (max n (2 * Array.length arr)) 0 in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let push_prim t x y =
  t.jprims <- grow t.jprims (t.jtop + 2);
  t.jprims.(t.jtop) <- x;
  t.jprims.(t.jtop + 1) <- y;
  t.jtop <- t.jtop + 2

let journal_flip t a s =
  prim_flip t a s;
  push_prim t a s

let journal_assign t tx s =
  let s_old = t.part.Partitioning.txn_site.(tx) in
  if prim_assign t tx s then push_prim t (-tx - 1) s_old

let start_move t =
  t.jstarts <- grow t.jstarts (t.jlen + 1);
  t.jstarts.(t.jlen) <- t.jtop;
  t.jlen <- t.jlen + 1

let flip t a s =
  start_move t;
  journal_flip t a s

let assign t tx s =
  start_move t;
  journal_assign t tx s

let move_component t txns attrs s =
  start_move t;
  let placed = t.part.Partitioning.placed in
  (* place on the target first so rows never go empty mid-move *)
  for i = 0 to Array.length attrs - 1 do
    let a = attrs.(i) in
    if not placed.(a).(s) then journal_flip t a s
  done;
  for i = 0 to Array.length txns - 1 do
    journal_assign t txns.(i) s
  done;
  for i = 0 to Array.length attrs - 1 do
    let a = attrs.(i) in
    for s' = 0 to t.part.Partitioning.num_sites - 1 do
      if s' <> s && placed.(a).(s') then journal_flip t a s'
    done
  done

let undo_move t =
  if t.jlen = 0 then invalid_arg "Delta_cost.undo_move: empty journal";
  t.jlen <- t.jlen - 1;
  let start = t.jstarts.(t.jlen) in
  (* inverses most-recent-first unwind the composite exactly *)
  let i = ref (t.jtop - 2) in
  while !i >= start do
    let x = t.jprims.(!i) and y = t.jprims.(!i + 1) in
    if x >= 0 then prim_flip t x y else ignore (prim_assign t (-x - 1) y);
    i := !i - 2
  done;
  t.jtop <- start

let commit t =
  t.jlen <- 0;
  t.jtop <- 0

let mark t = t.jlen

let undo_to t m =
  while t.jlen > m do
    undo_move t
  done
