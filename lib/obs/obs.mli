(** vpart_obs: structured tracing, metrics and solve-progress
    instrumentation for the solver stack.

    The layer has three pieces:

    - {!Clock}: a monotone time source replacing the scattered
      [Unix.gettimeofday] call sites in deadline checks and [elapsed]
      bookkeeping;
    - emitters ({!with_span}, {!count}, {!gauge}, {!point}, {!observe},
      {!timed}) that the solvers call unconditionally — when nothing is
      listening every emitter is a single flag test;
    - pluggable {!sink}s that receive timestamped {!event}s: {!null_sink}
      (drop everything), {!progress_sink} (human-readable lines) and
      {!jsonl_sink} (one JSON object per line, schema below), plus the
      in-process {!Metrics} aggregator for end-of-run summaries.

    {2 JSONL event schema (version {!schema_version})}

    Every line is a JSON object with fields [v] (schema version, int),
    [ev] (event kind), [ts] (seconds since the sink was installed, float)
    and kind-specific fields:

    - [{"v":1,"ev":"span_open","ts":..,"id":N,"parent":N|null,
       "name":S,"attrs":{..}}]
    - [{"v":1,"ev":"span_close","ts":..,"id":N,"name":S,"dur":F}]
    - [{"v":1,"ev":"counter","ts":..,"name":S,"add":F,"attrs":{..}}]
    - [{"v":1,"ev":"gauge","ts":..,"name":S,"value":F,"attrs":{..}}]
    - [{"v":1,"ev":"point","ts":..,"name":S,"attrs":{..}}]

    [attrs] values are scalars (int, float, bool or string).  Versioning
    policy: additions of new optional fields or new span/counter names are
    backwards-compatible and do not bump [v]; any change to the fields
    above or to the meaning of an existing name bumps [v], and readers
    must reject versions they do not know.  The catalogue of span and
    counter names emitted by the solvers lives in docs/OBSERVABILITY.md. *)

(** Monotone wall-clock.  The sealed environment has no binding to
    [CLOCK_MONOTONIC], so [now] is [Unix.gettimeofday] clamped to be
    non-decreasing within the process: a backwards step of the system
    clock (NTP adjustment, manual set) freezes [now] until real time
    catches up instead of making deadlines fire early or elapsed times
    negative.  Forward jumps are indistinguishable from time passing. *)
module Clock : sig
  val now : unit -> float
  (** Seconds since the Unix epoch, never decreasing within the process. *)

  val since : float -> float
  (** [since t0] is [now () -. t0] (>= 0 whenever [t0] came from [now]). *)
end

(** Scalar attribute values attached to events. *)
type value = Int of int | Float of float | Bool of bool | Str of string

type attrs = (string * value) list

type event =
  | Span_open of { id : int; parent : int option; name : string; attrs : attrs }
  | Span_close of { id : int; name : string; dur : float }
  | Counter of { name : string; add : float; attrs : attrs }
  | Gauge of { name : string; value : float; attrs : attrs }
  | Point of { name : string; attrs : attrs }

val schema_version : int
(** Version written into (and required of) every JSONL event. *)

val event_to_json : ts:float -> event -> Json.t
(** The schema-v1 rendering of one event. *)

(** {1 Sinks} *)

type sink = {
  emit : ts:float -> event -> unit;
      (** [ts] is seconds since the sink was installed. *)
  flush : unit -> unit;
}

val null_sink : unit -> sink
(** Accepts and drops every event (for overhead measurements; installing
    no sink at all is cheaper still). *)

val progress_sink : ?ppf:Format.formatter -> unit -> sink
(** Human-readable one-line-per-event rendering; defaults to stderr. *)

val jsonl_sink : (string -> unit) -> sink
(** [jsonl_sink write] renders each event with {!event_to_json} and calls
    [write] with the minified line (terminated by ["\n"]). *)

val tee : sink list -> sink
(** Broadcast to several sinks. *)

(** {1 Installation and emitters} *)

val set_sink : sink option -> unit
(** Install (or remove, with [None]) the process-wide sink.  Resets the
    sink's time origin and the span stack. *)

val enabled : unit -> bool
(** True when a sink is installed or {!Metrics} collection is on — the
    guard call sites use before building expensive attribute lists. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install a sink for the duration of the callback (flushing it and
    restoring the previous sink afterwards). *)

val with_span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** Run the callback inside a named span.  Spans nest; the sink sees
    matching [Span_open]/[Span_close] events (closed even on exceptions),
    and {!Metrics} records the duration under histogram ["span." ^ name]. *)

val count : ?attrs:attrs -> string -> float -> unit
(** Add to a named counter: a [Counter] event for the sink and an
    accumulating total in {!Metrics}. *)

val gauge : ?attrs:attrs -> string -> float -> unit
(** Set a named gauge (last value wins in {!Metrics}). *)

val point : ?attrs:attrs -> string -> unit
(** An instantaneous progress event (incumbent found, epoch finished).
    Sink-only; {!Metrics} counts occurrences under the event name. *)

val set_gc_sampling : bool -> unit
(** Enable/disable GC sampling at span boundaries (off by default, so
    existing traces stay byte-identical).  When on and a sink or
    {!Metrics} is active, every span close additionally emits the gauges
    [gc.minor_words], [gc.major_words] (cumulative allocation, words),
    [gc.heap_words] (current major heap) and [gc.compactions] — the
    memory-flatness evidence of the batch throughput bench.  New gauge
    names only: schema version is unchanged per the policy above. *)

val sample_gc : unit -> unit
(** Emit one GC sample immediately (same gauges as above); a no-op when
    sampling is off or nothing is listening.  For request-loop callers
    that want samples between spans. *)

val observe : string -> float -> unit
(** Record a value into a {!Metrics} histogram.  Metrics-only: histogram
    samples are aggregates, not trace events. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed name f] runs [f], recording its duration with {!observe}
    [name] when metrics are on.  Unlike {!with_span} it never emits trace
    events, so it is safe on warm paths. *)

(** In-process aggregation of counters, gauges and histograms, for
    end-of-run summaries ([solve --metrics-summary], bench JSON output).
    Collection is off by default and independent of the sink. *)
module Metrics : sig
  val enable : unit -> unit

  val disable : unit -> unit

  val enabled : unit -> bool

  val reset : unit -> unit
  (** Drop all accumulated values (collection state is unchanged). *)

  type hist = {
    count : int;
    sum : float;
    min : float;  (** exact *)
    max : float;  (** exact *)
    p50 : float;
    p90 : float;
    p99 : float;
        (** deterministic bounded-memory estimates: samples land in
            log-scale buckets of ratio 2^(1/8), percentiles report the
            nearest-rank bucket's geometric midpoint clamped to
            [[min,max]] (worst-case relative error ~4.4%, exact for
            single-sample histograms) *)
  }

  type snapshot = {
    counters : (string * float) list;  (** sorted by name *)
    gauges : (string * float) list;    (** sorted by name; last value *)
    hists : (string * hist) list;      (** sorted by name *)
  }

  val snapshot : unit -> snapshot

  val counter_value : string -> float
  (** Current total of a counter; [0.] when never incremented. *)

  val to_json : snapshot -> Json.t
  (** [{"counters":{..},"gauges":{..},"hists":{name:{"count":..,"sum":..,
      "min":..,"max":..,"p50":..,"p90":..,"p99":..}}}] *)

  val pp : Format.formatter -> snapshot -> unit
end

(** Parsing and validation of JSONL traces (the reader half of the
    schema contract). *)
module Reader : sig
  val event_of_json : Json.t -> (float * event, string) result
  (** Validate one line against the schema; returns [(ts, event)]. *)

  val read_string : string -> ((float * event) list, string) result
  (** Parse a whole JSONL document (blank lines ignored).  The error
      message names the offending line. *)

  val read_file : string -> ((float * event) list, string) result

  val check_nesting : (float * event) list -> (unit, string) result
  (** Well-formedness of the span structure: every [Span_close] must
      close the innermost open span, parents must be open at open time,
      and no span may remain open at end of trace. *)
end

(** Timeline reconstruction for [vpart_cli trace summarize]. *)
module Summary : sig
  type phase = { calls : int; total : float (** summed span durations *) }

  type t = {
    events : int;
    duration : float;             (** largest timestamp in the trace *)
    phases : (string * phase) list;       (** first-open order *)
    counters : (string * float) list;     (** summed, sorted by name *)
    gauges : (string * float) list;       (** last value, sorted by name *)
    points : (string * int) list;         (** occurrences, sorted by name *)
    solve_start : float option;   (** open ts of the first mip.solve span *)
    incumbents : (float * float) list;    (** (ts, objective), mip.incumbent *)
    bounds : (float * float) list;        (** (ts, bound), mip.bound *)
    time_to_first_incumbent : float option;
        (** first incumbent ts relative to [solve_start] (or the trace
            start when no mip.solve span is present) *)
  }

  val of_events : (float * event) list -> t

  val to_json : t -> Json.t
  (** Machine-readable summary ([trace summarize --format json]):
      [{"schema_version":..,"events":..,"duration_seconds":..,
      "phases":{name:{"calls":..,"total_seconds":..}},"counters":{..},
      "gauges":{..},"points":{..},"solve_start":..,
      "incumbents":[{"ts":..,"value":..}],"bounds":[..],
      "time_to_first_incumbent":..}] with [null] for absent optionals. *)

  val pp : Format.formatter -> t -> unit
  (** The timeline report: per-phase breakdown, counters, incumbent /
      gap-vs-time trajectory.  Deterministic for a given trace. *)
end
