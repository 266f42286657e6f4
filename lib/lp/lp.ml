type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type vinfo = {
  v_name : string option;
  v_lb : float;
  v_ub : float;
  v_integer : bool;
}

type row = {
  r_idx : int array;
  r_val : float array;
  r_cmp : cmp;
  r_rhs : float;
}

type model = {
  m_name : string;
  mutable vars : vinfo array;   (* grown geometrically; [nvars] live *)
  mutable nvars : int;
  mutable rows_rev : row list;  (* newest first *)
  mutable nrows : int;
  mutable obj_sense : sense;
  mutable obj_terms : (float * var) list;
  mutable obj_constant : float;
}

let create ?(name = "model") () =
  {
    m_name = name;
    vars = [||];
    nvars = 0;
    rows_rev = [];
    nrows = 0;
    obj_sense = Minimize;
    obj_terms = [];
    obj_constant = 0.;
  }

let name m = m.m_name

let dummy_vinfo = { v_name = None; v_lb = 0.; v_ub = 0.; v_integer = false }

let add_var m ?name ?(lb = 0.) ?(ub = infinity) ?(integer = false) () =
  if Float.is_nan lb || Float.is_nan ub || lb = infinity || ub = neg_infinity
  then
    invalid_arg
      (Printf.sprintf "Lp.add_var: unsatisfiable bounds [%g, %g]" lb ub);
  if lb > ub then
    invalid_arg (Printf.sprintf "Lp.add_var: lb %g > ub %g" lb ub);
  if m.nvars = Array.length m.vars then begin
    let cap = max 16 (2 * Array.length m.vars) in
    let grown = Array.make cap dummy_vinfo in
    Array.blit m.vars 0 grown 0 m.nvars;
    m.vars <- grown
  end;
  m.vars.(m.nvars) <- { v_name = name; v_lb = lb; v_ub = ub; v_integer = integer };
  m.nvars <- m.nvars + 1;
  m.nvars - 1

let binary m ?name () = add_var m ?name ~lb:0. ~ub:1. ~integer:true ()

(* Sum duplicate variables, drop exact zeros, sort by variable index.  A
   stable sort of the term positions by variable keeps each variable's
   terms in list order, so the merge sums them from [0.] exactly as they
   were given. *)
let normalize_terms m terms =
  let n = List.length terms in
  let vars = Array.make n 0 and coefs = Array.make n 0. in
  List.iteri
    (fun i (c, v) ->
       if v < 0 || v >= m.nvars then
         invalid_arg
           (Printf.sprintf "Lp: variable %d out of range (have %d)" v m.nvars);
       vars.(i) <- v;
       coefs.(i) <- c)
    terms;
  let ord = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare vars.(a) vars.(b)) ord;
  let idx = Array.make n 0 and value = Array.make n 0. in
  let k = ref 0 and i = ref 0 in
  while !i < n do
    let v = vars.(ord.(!i)) in
    let sum = ref 0. in
    while !i < n && vars.(ord.(!i)) = v do
      sum := !sum +. coefs.(ord.(!i));
      incr i
    done;
    if !sum <> 0. then begin
      idx.(!k) <- v;
      value.(!k) <- !sum;
      incr k
    end
  done;
  if !k = n then (idx, value) else (Array.sub idx 0 !k, Array.sub value 0 !k)

let add_constr m terms cmp rhs =
  if Float.is_nan rhs || Float.abs rhs = infinity then
    invalid_arg
      (Printf.sprintf "Lp.add_constr: non-finite right-hand side %g" rhs);
  List.iter
    (fun (c, v) ->
       if Float.is_nan c || Float.abs c = infinity then
         invalid_arg
           (Printf.sprintf "Lp.add_constr: non-finite coefficient %g on variable %d"
              c v))
    terms;
  let r_idx, r_val = normalize_terms m terms in
  (* After summing duplicates and dropping zeros the row may be empty; an
     unsatisfiable empty row (e.g. [0·x = 1]) is a modeling bug — report it
     here instead of letting the solver chase a phantom infeasibility. *)
  if Array.length r_idx = 0 then begin
    let ok = match cmp with Le -> rhs >= 0. | Ge -> rhs <= 0. | Eq -> rhs = 0. in
    if not ok then
      invalid_arg
        (Printf.sprintf "Lp.add_constr: empty row \"0 %s %g\" is trivially infeasible"
           (match cmp with Le -> "<=" | Ge -> ">=" | Eq -> "=")
           rhs)
  end;
  m.rows_rev <- { r_idx; r_val; r_cmp = cmp; r_rhs = rhs } :: m.rows_rev;
  m.nrows <- m.nrows + 1

let set_objective m sense ?(constant = 0.) terms =
  List.iter
    (fun (_, v) ->
       if v < 0 || v >= m.nvars then
         invalid_arg (Printf.sprintf "Lp.set_objective: variable %d out of range" v))
    terms;
  m.obj_sense <- sense;
  m.obj_terms <- terms;
  m.obj_constant <- constant

let num_vars m = m.nvars

let num_constrs m = m.nrows

let var_name m v =
  if v < 0 || v >= m.nvars then invalid_arg "Lp.var_name: out of range";
  match m.vars.(v).v_name with Some s -> s | None -> Printf.sprintf "x%d" v

type std = {
  std_name : string;
  ncols : int;
  nrows : int;
  obj : float array;
  obj_const : float;
  lb : float array;
  ub : float array;
  integer : bool array;
  row_idx : int array array;
  row_val : float array array;
  rhs : float array;
  row_cmp : cmp array;
  maximize : bool;
}

let standardize m =
  let n = m.nvars in
  let maximize = m.obj_sense = Maximize in
  let sign = if maximize then -1. else 1. in
  let obj = Array.make n 0. in
  List.iter (fun (c, v) -> obj.(v) <- obj.(v) +. (sign *. c)) m.obj_terms;
  let lb = Array.init n (fun i -> m.vars.(i).v_lb)
  and ub = Array.init n (fun i -> m.vars.(i).v_ub)
  and integer = Array.init n (fun i -> m.vars.(i).v_integer) in
  let rows = Array.of_list (List.rev m.rows_rev) in
  {
    std_name = m.m_name;
    ncols = n;
    nrows = Array.length rows;
    obj;
    obj_const = sign *. m.obj_constant;
    lb;
    ub;
    integer;
    row_idx = Array.map (fun r -> r.r_idx) rows;
    row_val = Array.map (fun r -> r.r_val) rows;
    rhs = Array.map (fun r -> r.r_rhs) rows;
    row_cmp = Array.map (fun r -> r.r_cmp) rows;
    maximize;
  }

let restore_objective std v = if std.maximize then -.v else v

let eval_row std r x =
  let acc = ref 0. in
  let idx = std.row_idx.(r) and value = std.row_val.(r) in
  for k = 0 to Array.length idx - 1 do
    acc := !acc +. (value.(k) *. x.(idx.(k)))
  done;
  !acc

type violation =
  | Wrong_length of { expected : int; got : int }
  | Non_finite of { var : int; value : float }
  | Bound_violation of { var : int; value : float; lb : float; ub : float;
                         excess : float }
  | Not_integral of { var : int; value : float }
  | Row_violation of { row : int; activity : float; cmp : cmp; rhs : float;
                       excess : float }

let feasibility_violations ?(tol = 1e-6) std x =
  if Array.length x <> std.ncols then
    [ Wrong_length { expected = std.ncols; got = Array.length x } ]
  else begin
    let out = ref [] in
    let add v = out := v :: !out in
    let finite = ref true in
    for j = 0 to std.ncols - 1 do
      let v = x.(j) in
      (* a NaN coordinate compares false against every bound — reject
         non-finite points explicitly instead of accepting them *)
      if not (Float.is_finite v) then begin
        finite := false;
        add (Non_finite { var = j; value = v })
      end
      else begin
        if v < std.lb.(j) -. tol || v > std.ub.(j) +. tol then
          add
            (Bound_violation
               { var = j; value = v; lb = std.lb.(j); ub = std.ub.(j);
                 excess = Float.max (std.lb.(j) -. v) (v -. std.ub.(j)) });
        if std.integer.(j) && Float.abs (v -. Float.round v) > tol then
          add (Not_integral { var = j; value = v })
      end
    done;
    (* row activities are meaningless over a non-finite point *)
    if !finite then
      for r = 0 to std.nrows - 1 do
        let act = eval_row std r x in
        let excess =
          match std.row_cmp.(r) with
          | Le -> act -. std.rhs.(r)
          | Ge -> std.rhs.(r) -. act
          | Eq -> Float.abs (act -. std.rhs.(r))
        in
        if excess > tol then
          add
            (Row_violation
               { row = r; activity = act; cmp = std.row_cmp.(r);
                 rhs = std.rhs.(r); excess })
      done;
    List.rev !out
  end

let string_of_cmp = function Le -> "<=" | Ge -> ">=" | Eq -> "="

let pp_violation ?var_name () ppf v =
  let vname j =
    match var_name with Some f -> f j | None -> Printf.sprintf "x%d" j
  in
  match v with
  | Wrong_length { expected; got } ->
    Format.fprintf ppf "point has %d coordinates, model has %d columns" got
      expected
  | Non_finite { var; value } ->
    Format.fprintf ppf "variable %s has non-finite value %g" (vname var) value
  | Bound_violation { var; value; lb; ub; excess } ->
    Format.fprintf ppf "variable %s = %g outside bounds [%g, %g] by %g"
      (vname var) value lb ub excess
  | Not_integral { var; value } ->
    Format.fprintf ppf "integer variable %s = %g is fractional" (vname var)
      value
  | Row_violation { row; activity; cmp; rhs; excess } ->
    Format.fprintf ppf "row %d violated: activity %g %s %g fails by %g" row
      activity (string_of_cmp cmp) rhs excess

let check_feasible ?tol std x = feasibility_violations ?tol std x = []

let eval_objective std x =
  let acc = ref std.obj_const in
  for j = 0 to std.ncols - 1 do
    acc := !acc +. (std.obj.(j) *. x.(j))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* MPS export                                                          *)
(* ------------------------------------------------------------------ *)

let to_mps m =
  let std = standardize m in
  let buf = Buffer.create 4096 in
  let vname j =
    (* MPS identifiers: keep it simple and collision-free *)
    Printf.sprintf "C%07d" j
  in
  Buffer.add_string buf (Printf.sprintf "NAME          %s\n" m.m_name);
  Buffer.add_string buf "ROWS\n N  COST\n";
  for r = 0 to std.nrows - 1 do
    let tag = match std.row_cmp.(r) with Le -> 'L' | Ge -> 'G' | Eq -> 'E' in
    Buffer.add_string buf (Printf.sprintf " %c  R%07d\n" tag r)
  done;
  Buffer.add_string buf "COLUMNS\n";
  (* column-major walk: gather per-column entries *)
  let cols = Array.make std.ncols [] in
  for r = std.nrows - 1 downto 0 do
    let idx = std.row_idx.(r) and value = std.row_val.(r) in
    for k = 0 to Array.length idx - 1 do
      cols.(idx.(k)) <- (r, value.(k)) :: cols.(idx.(k))
    done
  done;
  let in_int_block = ref false in
  for j = 0 to std.ncols - 1 do
    if std.integer.(j) && not !in_int_block then begin
      Buffer.add_string buf
        "    MARKER                 'MARKER'                 'INTORG'\n";
      in_int_block := true
    end
    else if (not std.integer.(j)) && !in_int_block then begin
      Buffer.add_string buf
        "    MARKER                 'MARKER'                 'INTEND'\n";
      in_int_block := false
    end;
    if std.obj.(j) <> 0. then
      Buffer.add_string buf
        (Printf.sprintf "    %-10s COST      %.12g\n" (vname j) std.obj.(j));
    List.iter
      (fun (r, c) ->
         Buffer.add_string buf
           (Printf.sprintf "    %-10s R%07d  %.12g\n" (vname j) r c))
      cols.(j)
  done;
  if !in_int_block then
    Buffer.add_string buf
      "    MARKER                 'MARKER'                 'INTEND'\n";
  Buffer.add_string buf "RHS\n";
  for r = 0 to std.nrows - 1 do
    if std.rhs.(r) <> 0. then
      Buffer.add_string buf
        (Printf.sprintf "    RHS        R%07d  %.12g\n" r std.rhs.(r))
  done;
  Buffer.add_string buf "BOUNDS\n";
  for j = 0 to std.ncols - 1 do
    let l = std.lb.(j) and u = std.ub.(j) in
    if l = neg_infinity && u = infinity then
      Buffer.add_string buf (Printf.sprintf " FR BND        %s\n" (vname j))
    else begin
      if l <> 0. then begin
        if l = neg_infinity then
          Buffer.add_string buf (Printf.sprintf " MI BND        %s\n" (vname j))
        else
          Buffer.add_string buf
            (Printf.sprintf " LO BND        %-10s %.12g\n" (vname j) l)
      end;
      if u <> infinity then
        Buffer.add_string buf
          (Printf.sprintf " UP BND        %-10s %.12g\n" (vname j) u)
    end
  done;
  Buffer.add_string buf "ENDATA\n";
  Buffer.contents buf

let pp_stats ppf m =
  let nnz =
    List.fold_left (fun acc r -> acc + Array.length r.r_idx) 0 m.rows_rev
  in
  Format.fprintf ppf "%s: %d vars (%d integer), %d constraints, %d nonzeros"
    m.m_name m.nvars
    (let n = ref 0 in
     for i = 0 to m.nvars - 1 do
       if m.vars.(i).v_integer then incr n
     done;
     !n)
    m.nrows nnz
