(** Sustained-throughput batch solve service.

    [run] fans a lazy stream of instances (typically
    {!Instance_gen.stream}) across a {!Par} work-stealing domain pool,
    applying one {!action} per instance, and hands each {!response} to
    the caller's [emit] callback {e in submission order} — the JSONL
    writer never has to buffer or re-sort.

    Memory is bounded two ways:

    - the stream is consumed in windows of [window] requests, so at most
      one window of instances and responses is live at a time no matter
      how long the sweep is (a 10k-instance run holds tens, not
      thousands);
    - every pool participant owns a {!Vpart_simplex.Simplex.Workspace}
      (indexed by {!Par.worker_index}), so steady-state solving reuses
      the simplex float arena instead of reallocating it per request.
      Pooled state never changes results: pooled and fresh solver
      instances are bit-identical by construction (enforced by
      [test/test_simplex.ml] and [test/test_batch.ml]).

    Observability: the sweep runs inside a [batch.run] span, counts
    [batch.requests] / [batch.failures], and records per-request latency
    in the [batch.request.seconds] metrics histogram; with
    {!Obs.set_gc_sampling} on, [gc.*] gauges track memory flatness. *)

open Vpart

type action =
  | Check
      (** Lint the instance ({!Instance_lint.lint}) and price the
          single-site baseline with {!Cost_model.cost} and
          {!Cost_model.objective} — the cheap action for
          memory-behaviour sweeps. *)
  | Certify
      (** {!Qp_solver.solve} with the pooled simplex workspace and
          self-certification on: every claim of every result is
          re-derived ({!Qp_solver.options.certify}), and a response is
          only [ok] when its certificate is clean.  There is no
          uncertified solve action. *)

val action_of_string : string -> action option
(** Parses ["check"] and ["certify"]; [None] otherwise. *)

val string_of_action : action -> string

type response = {
  index : int;          (** position in the request stream *)
  name : string;        (** instance name *)
  ok : bool;
      (** [Check]: no error-level lint findings.  [Certify]: an
          incumbent was returned and its certificate is clean. *)
  outcome : string;
      (** [Check]: ["clean"] or ["findings"].  [Certify]: the
          solver outcome tag ([optimal], [feasible], [no_solution],
          [too_large]), or ["error"] when the request raised. *)
  cost : float option;        (** objective (4) of the returned layout *)
  objective6 : float option;  (** objective (6); what the MIP minimized *)
  seconds : float;            (** wall-clock latency of this request *)
  error : string option;      (** exception text when [outcome = "error"] *)
}

val response_to_json : response -> Json.t
(** One JSONL line: [{"index":..,"name":..,"ok":..,"outcome":..,
    "cost":..,"objective6":..,"seconds":..,"error":..}] with [null] for
    absent optionals. *)

type summary = {
  requests : int;
  failures : int;             (** responses with [ok = false] *)
  elapsed_seconds : float;
  throughput : float;         (** requests per second *)
  p50_seconds : float;        (** exact nearest-rank latency percentiles *)
  p99_seconds : float;
  minor_words : float;        (** GC words allocated during the sweep *)
  major_words : float;
  top_heap_words : int;       (** major-heap high water over the sweep *)
  compactions : int;
  max_rss_kb : int option;    (** VmHWM from /proc/self/status, if readable *)
}

val summary_to_json : summary -> Json.t

val run :
  ?jobs:int ->
  ?window:int ->
  ?options:Qp_solver.options ->
  action:action ->
  emit:(response -> unit) ->
  (string * Instance.t) Seq.t ->
  summary
(** Consume the stream.  [jobs] (default 1) sizes the domain pool;
    [window] (default [8 * jobs]) bounds in-flight requests; [options]
    (default {!Qp_solver.default_options}) configures [Certify]
    solves and the [Check] evaluation ([p], [lambda], [num_sites]) —
    its [certify] flag is forced on and its [simplex_workspace] is
    overridden with the per-domain arena.
    [emit] runs on the calling domain, in stream order.  A request that
    raises becomes an [outcome = "error"] response instead of aborting
    the sweep. *)
