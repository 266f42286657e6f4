(* Bench JSON provenance and the one tolerance-band comparator; policy
   in the interface. *)

let schema_version = 1

type provenance = {
  git_rev : string;
  generated_utc : string;
  ocaml_version : string;
  domains : int;
}

let git_rev () =
  match Sys.getenv_opt "VPART_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
      try
        let ic =
          Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
        in
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with _ -> "unknown")

let utc_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let provenance () =
  {
    git_rev = git_rev ();
    generated_utc = utc_now ();
    ocaml_version = Sys.ocaml_version;
    domains = Domain.recommended_domain_count ();
  }

let provenance_to_json p =
  Json.Obj
    [
      ("git_rev", Json.String p.git_rev);
      ("generated_utc", Json.String p.generated_utc);
      ("ocaml_version", Json.String p.ocaml_version);
      ("domains", Json.Int p.domains);
    ]

let provenance_json () = provenance_to_json (provenance ())

let provenance_of_json json =
  match json with
  | Json.Obj _ -> (
      let str key =
        match Json.member_opt key json with
        | Some (Json.String s) -> Some s
        | _ -> None
      in
      let int key =
        match Json.member_opt key json with
        | Some (Json.Int i) -> Some i
        | _ -> None
      in
      match (str "git_rev", str "generated_utc", str "ocaml_version", int "domains") with
      | Some git_rev, Some generated_utc, Some ocaml_version, Some domains ->
          Some { git_rev; generated_utc; ocaml_version; domains }
      | _ -> None)
  | _ -> None

type direction = Lower_better | Higher_better | Boolean | Informational

type value = Num of float | Flag of bool

type verdict = Regression | Improvement | Unchanged | Changed | Missing | New

type row = {
  metric : string;
  direction : direction;
  base : value option;
  cur : value option;
  delta : float option;
  verdict : verdict;
}

type options = { tolerance_pct : float; abs_floor : float }

let default_options = { tolerance_pct = 50.; abs_floor = 5e-3 }
let trace_options = { tolerance_pct = 10.; abs_floor = 1e-3 }

type report = {
  rows : row list;
  regressions : int;
  improvements : int;
  missing : int;
  fresh : int;
  warnings : string list;
}

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn > 0 && go 0

type pattern = Prefix of string | Leaf of string | Infix of string

(* The one direction table: the first entry whose pattern matches the
   lower-cased key decides, and a key no entry matches is
   informational.  Trace keys start with [span/] or [counter/], bench
   keys with [results/] or [metrics/]. *)
let direction_table =
  [
    (Prefix "span/seconds/", Lower_better);
    (Prefix "counter/total/", Lower_better);
    (Prefix "span/calls/", Informational);
    (Prefix "counter/events/", Informational);
    (Leaf "count", Informational);
    (Leaf "domains", Informational);
    (Leaf "schema_version", Informational);
    (* "per_second" contains "seconds": higher-is-better names first. *)
    (Infix "per_second", Higher_better);
    (Infix "per_sec", Higher_better);
    (Infix "speedup", Higher_better);
    (Infix "throughput", Higher_better);
    (Infix "seconds", Lower_better);
    (Infix "_time", Lower_better);
    (Infix "time_", Lower_better);
    (Infix "duration", Lower_better);
    (Infix "overhead", Lower_better);
    (Infix "latency", Lower_better);
    (Infix "span.", Lower_better);
  ]

let direction_of key value =
  match value with
  | Some (Flag _) -> Boolean
  | _ -> (
      let lower = String.lowercase_ascii key in
      let leaf =
        match String.rindex_opt lower '/' with
        | Some i -> String.sub lower (i + 1) (String.length lower - i - 1)
        | None -> lower
      in
      let matches = function
        | Prefix p -> String.starts_with ~prefix:p lower
        | Leaf l -> leaf = l
        | Infix s -> contains lower s
      in
      match List.find_opt (fun (p, _) -> matches p) direction_table with
      | Some (_, d) -> d
      | None -> Informational)

(* Bench reader: numeric/boolean leaves of the results + metrics
   members; strings, nulls and arrays are not comparable metrics.  A
   repeated path keeps its first value. *)
let flatten doc =
  let tbl : (string, value) Hashtbl.t = Hashtbl.create 64 in
  let leaf path v = if not (Hashtbl.mem tbl path) then Hashtbl.add tbl path v in
  let rec walk prefix json =
    match json with
    | Json.Obj fields ->
        List.iter (fun (k, v) -> walk (prefix ^ "/" ^ k) v) fields
    | Json.Int i -> leaf prefix (Num (float_of_int i))
    | Json.Float f -> leaf prefix (Num f)
    | Json.Bool b -> leaf prefix (Flag b)
    | Json.String _ | Json.Null | Json.List _ -> ()
  in
  List.iter
    (fun key ->
      match Json.member_opt key doc with
      | Some sub -> walk key sub
      | None -> ())
    [ "results"; "metrics" ];
  tbl

let verdict_of ~opts direction base cur =
  match (base, cur) with
  | None, None -> Unchanged
  | Some _, None -> Missing
  | None, Some _ -> New
  | Some (Flag a), Some (Flag b) ->
      if a = b then Unchanged
      else if a && not b then Regression
      else Improvement
  | Some (Num a), Some (Num b) -> (
      let delta = b -. a in
      let beyond_band worse_delta =
        worse_delta > opts.abs_floor
        && worse_delta > Float.abs a *. opts.tolerance_pct /. 100.
      in
      match direction with
      | Lower_better ->
          if beyond_band delta then Regression
          else if beyond_band (-.delta) then Improvement
          else Unchanged
      | Higher_better ->
          if beyond_band (-.delta) then Regression
          else if beyond_band delta then Improvement
          else Unchanged
      | Boolean | Informational ->
          if a = b then Unchanged else Changed)
  | Some _, Some _ -> Changed (* numeric vs boolean type drift *)

let schema_warnings baseline current =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  let version doc =
    match Json.member_opt "schema_version" doc with
    | Some (Json.Int v) -> Some v
    | _ -> None
  in
  (match (version baseline, version current) with
  | None, _ -> warn "baseline has no schema_version (pre-PR-8 bench file)"
  | _, None -> warn "current has no schema_version (pre-PR-8 bench file)"
  | Some a, Some b ->
      if a <> b then warn "schema_version differs: baseline %d vs current %d" a b
      else if a <> schema_version then
        warn "unknown schema_version %d (this reader knows %d)" a schema_version);
  let prov doc =
    Option.bind (Json.member_opt "provenance" doc) provenance_of_json
  in
  (match (prov baseline, prov current) with
  | Some a, Some b ->
      if a.domains <> b.domains then
        warn
          "host core counts differ (baseline %d vs current %d domains): \
           timing comparisons are cross-host"
          a.domains b.domains;
      if a.ocaml_version <> b.ocaml_version then
        warn "OCaml versions differ: baseline %s vs current %s" a.ocaml_version
          b.ocaml_version
  | None, _ | _, None -> ());
  (match (Json.member_opt "config" baseline, Json.member_opt "config" current) with
  | Some a, Some b when Json.to_string ~minify:true a <> Json.to_string ~minify:true b
    ->
      warn "bench configs differ: results may not be comparable"
  | _ -> ());
  List.rev !warnings

(* The comparison both readers run, over key -> value tables. *)
let compare_tables ~opts ~warnings base_tbl cur_tbl =
  let keys : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) base_tbl;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) cur_tbl;
  let rows =
    Hashtbl.fold
      (fun metric () acc ->
        let base = Hashtbl.find_opt base_tbl metric in
        let cur = Hashtbl.find_opt cur_tbl metric in
        let direction =
          direction_of metric (match base with Some _ -> base | None -> cur)
        in
        let delta =
          match (base, cur) with
          | Some (Num a), Some (Num b) -> Some (b -. a)
          | _ -> None
        in
        { metric; direction; base; cur; delta; verdict = verdict_of ~opts direction base cur }
        :: acc)
      keys []
    |> List.sort (fun a b ->
           let rank r =
             match r.verdict with
             | Regression -> 0
             | Missing -> 1
             | Improvement -> 2
             | Changed -> 3
             | New -> 4
             | Unchanged -> 5
           in
           match Stdlib.compare (rank a) (rank b) with
           | 0 -> Stdlib.compare a.metric b.metric
           | c -> c)
  in
  let tally v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  {
    rows;
    regressions = tally Regression;
    improvements = tally Improvement;
    missing = tally Missing;
    fresh = tally New;
    warnings;
  }

let compare ?(options = default_options) ~baseline ~current () =
  compare_tables ~opts:options
    ~warnings:(schema_warnings baseline current)
    (flatten baseline) (flatten current)

(* Trace reader: span seconds and calls per span path, counter totals
   and event counts per name, with a key absent from one trace read as
   zero there. *)
let trace_table events =
  let tbl : (string, value) Hashtbl.t = Hashtbl.create 64 in
  let add key x =
    let prev =
      match Hashtbl.find_opt tbl key with Some (Num v) -> v | _ -> 0.
    in
    Hashtbl.replace tbl key (Num (prev +. x))
  in
  List.iter
    (fun (path, (n : Profile.node)) ->
      add ("span/seconds/" ^ path) n.total;
      add ("span/calls/" ^ path) (float_of_int n.calls))
    (Profile.flatten (Profile.of_events events));
  List.iter
    (fun (_, ev) ->
      match ev with
      | Obs.Counter { name; add = x; _ } ->
          add ("counter/total/" ^ name) x;
          add ("counter/events/" ^ name) 1.
      | _ -> ())
    events;
  tbl

let compare_traces ?(options = trace_options) ~baseline ~current () =
  let base = trace_table baseline and cur = trace_table current in
  let zero_fill tbl other =
    Hashtbl.iter
      (fun k _ -> if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k (Num 0.))
      other
  in
  zero_fill base cur;
  zero_fill cur base;
  compare_tables ~opts:options ~warnings:[] base cur

let passed r = r.regressions = 0 && r.missing = 0

let verdict_str = function
  | Regression -> "REGRESSION"
  | Improvement -> "IMPROVEMENT"
  | Unchanged -> "unchanged"
  | Changed -> "changed"
  | Missing -> "MISSING"
  | New -> "new"

let direction_str = function
  | Lower_better -> "lower-better"
  | Higher_better -> "higher-better"
  | Boolean -> "boolean"
  | Informational -> "informational"

let value_str = function
  | Some (Num f) -> Printf.sprintf "%g" f
  | Some (Flag b) -> string_of_bool b
  | None -> "-"

let pp ppf r =
  List.iter (fun w -> Format.fprintf ppf "warning: %s@." w) r.warnings;
  Format.fprintf ppf
    "%d metric(s) — %d regression(s), %d missing, %d improvement(s), %d \
     new@."
    (List.length r.rows) r.regressions r.missing r.improvements r.fresh;
  List.iter
    (fun row ->
      let moved = match row.delta with Some d -> d <> 0. | None -> false in
      if row.verdict <> Unchanged || moved then begin
        Format.fprintf ppf "  [%-11s] %s (%s): %s -> %s"
          (verdict_str row.verdict) row.metric
          (direction_str row.direction)
          (value_str row.base) (value_str row.cur);
        (match (row.delta, row.base) with
        | Some d, Some (Num a) when a <> 0. ->
            Format.fprintf ppf " (%+g, %+.1f%%)" d (100. *. d /. Float.abs a)
        | Some d, _ -> Format.fprintf ppf " (%+g)" d
        | None, _ -> ());
        Format.fprintf ppf "@."
      end)
    r.rows;
  Format.fprintf ppf "verdict: %s@." (if passed r then "PASS" else "FAIL")

let value_json = function
  | Some (Num f) -> Json.Float f
  | Some (Flag b) -> Json.Bool b
  | None -> Json.Null

let to_json r =
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("metric", Json.String row.metric);
                   ("direction", Json.String (direction_str row.direction));
                   ("base", value_json row.base);
                   ("current", value_json row.cur);
                   ( "delta",
                     match row.delta with
                     | Some d -> Json.Float d
                     | None -> Json.Null );
                   ( "verdict",
                     Json.String
                       (String.lowercase_ascii (verdict_str row.verdict)) );
                 ])
             r.rows) );
      ("regressions", Json.Int r.regressions);
      ("improvements", Json.Int r.improvements);
      ("missing", Json.Int r.missing);
      ("new", Json.Int r.fresh);
      ("warnings", Json.List (List.map (fun w -> Json.String w) r.warnings));
      ("passed", Json.Bool (passed r));
    ]
