(** The one comparator behind [vpart_cli bench-check] and
    [vpart_cli trace diff], and the provenance stamp of bench results.

    {2 Schema}

    [bench --json-out] documents are versioned from schema version 1 on:
    top-level [schema_version] (int) and [provenance] (object: [git_rev],
    [generated_utc], [ocaml_version], [domains] =
    [Domain.recommended_domain_count ()]) ride alongside the existing
    [config] / [results] / [metrics] members.  Additions of new members
    are backwards-compatible; changes to existing members bump the
    version, and {!compare} warns on any version it does not know.

    {2 Comparison policy}

    Each reader flattens its two inputs to key → value maps, and one
    function compares them key by key.  The readers:

    - {!compare} (bench documents) flattens the numeric and boolean
      leaves of [results] and [metrics] to ["results/…/leaf"] /
      ["metrics/…/leaf"] paths;
    - {!compare_traces} folds each trace through {!Profile.flatten} and
      keys its rows ["span/seconds/PATH"], ["span/calls/PATH"] (PATH the
      ";"-joined span path), ["counter/total/NAME"] and
      ["counter/events/NAME"] (summed over the whole trace).

    One direction table classifies every key:

    - {e lower-is-better}: span seconds, trace counter totals, and bench
      metrics named in wall-clock language ([seconds], [time],
      [duration], [overhead], [latency], [span.] histograms);
    - {e higher-is-better}: bench metrics named [per_second], [speedup]
      or [throughput];
    - booleans gate with zero tolerance ([true -> false] is a
      [Regression]);
    - everything else (span calls, counter event counts, bench node
      counts, iteration totals, configuration echoes) is informational:
      reported as [Changed]/[Unchanged], never a regression.

    A directed metric that moves beyond {e both} the relative band and
    the absolute floor (in the metric's own unit) in the bad direction
    is a [Regression], in the good direction an [Improvement].

    Keys present on one side only follow the reader's rule.  A span or
    counter absent from a trace means zero, so the trace reader fills in
    0 before comparing: a new span that costs time is a regression, a
    vanished one an improvement.  A metric present in the baseline bench
    document but absent from the current one is [Missing] and fails the
    gate (silently dropping a metric is how regressions hide); one only
    in the current document is [New] and informational. *)

val schema_version : int

type provenance = {
  git_rev : string;       (** [VPART_GIT_REV] env override, else git *)
  generated_utc : string; (** ISO-8601 UTC, e.g. 2026-08-08T12:00:00Z *)
  ocaml_version : string;
  domains : int;          (** [Domain.recommended_domain_count ()] *)
}

val provenance : unit -> provenance
val provenance_json : unit -> Json.t
val provenance_of_json : Json.t -> provenance option

type direction = Lower_better | Higher_better | Boolean | Informational

type value = Num of float | Flag of bool

type verdict = Regression | Improvement | Unchanged | Changed | Missing | New

type row = {
  metric : string;
      (** flattened key, e.g. [results/table3/qp_seconds] or
          [span/seconds/mip.solve;simplex.solve] *)
  direction : direction;
  base : value option;
  cur : value option;
  delta : float option;  (** cur - base when both numeric *)
  verdict : verdict;
}

type options = {
  tolerance_pct : float;  (** relative band, percent *)
  abs_floor : float;      (** absolute floor, in the metric's unit *)
}

val default_options : options
(** [bench-check]'s band: 50 % and 5 ms.  Deliberately wide: the gate
    catches order-of-magnitude cliffs on shared CI hosts, not 5 % noise
    — tighten it with [--tolerance] on quiet hardware. *)

val trace_options : options
(** [trace diff]'s band: 10 % and 1 ms ([--threshold], [--min-span]). *)

type report = {
  rows : row list;  (** gating verdicts first, then by key *)
  regressions : int;
  improvements : int;
  missing : int;
  fresh : int;     (** [New] rows *)
  warnings : string list;
      (** schema-version / provenance / config mismatches — context for
          reading the verdicts, never failures themselves *)
}

val compare :
  ?options:options -> baseline:Json.t -> current:Json.t -> unit -> report
(** Bench documents; {!default_options} unless given. *)

val compare_traces :
  ?options:options ->
  baseline:(float * Obs.event) list ->
  current:(float * Obs.event) list ->
  unit ->
  report
(** Traces as read by {!Obs.Reader}; {!trace_options} unless given.
    Never reports [Missing] or [New], and carries no warnings. *)

val passed : report -> bool
(** [regressions = 0 && missing = 0] — the gates' exit criterion. *)

val pp : Format.formatter -> report -> unit
(** The tallies, each row that moved or has a non-[Unchanged] verdict
    (with its relative change when the baseline is non-zero), and the
    PASS/FAIL verdict. *)

val to_json : report -> Json.t
