(** Row-store storage-layer simulator.

    The paper's cost model {e estimates} the bytes moved by storage-layer
    access methods under a vertical partitioning; this module provides the
    corresponding operational substrate: it materializes a partitioning as
    per-site {e table fractions} (row segments containing the attributes
    placed on that site), then executes workloads against the deployment,
    counting every byte read, written and transferred according to the
    H-store-like execution rules of §2.1:

    - a read query executes at its transaction's home site and scans the
      local fractions of every table it touches (whole fraction rows — a
      row store reads rows, not columns);
    - a write query writes the full local fraction row of every touched
      table on {e every} site holding one (the paper's "access all
      attributes" choice), and ships the updated attributes to every
      non-home replica site.

    Running the whole workload once must therefore reproduce
    {!Vpart.Cost_model.breakdown} exactly — the test suite asserts this —
    while {!run_trace} executes a sampled transaction mix like a live
    system would. *)

type fraction = {
  f_table : int;
  f_site : int;
  f_attrs : int list;   (** attribute ids stored in this fraction *)
  f_width : int;        (** bytes per fraction row *)
  f_rows : int;         (** simulated cardinality *)
}

type t
(** A deployment: an instance, a partitioning, and the derived fractions. *)

type counters = {
  bytes_read : float;        (** storage-layer reads at home sites *)
  bytes_written : float;     (** storage-layer writes on all replicas *)
  bytes_transferred : float; (** inter-site shipping of updated attributes *)
  remote_write_queries : int;(** executions that touched a remote site (ψ) *)
  queries_executed : int;
}

val deploy :
  ?table_rows:(string * int) list ->
  Vpart.Instance.t -> Vpart.Partitioning.t -> t
(** Materialize the partitioning.  [table_rows] gives simulated
    cardinalities by table name (default 1000 rows each).
    @raise Invalid_argument if the partitioning does not validate. *)

val fractions : t -> fraction list
(** All non-empty fractions, by (table, site). *)

val fraction_width : t -> table:int -> site:int -> int
(** Row width of a table's fraction on a site (0 if absent). *)

val storage_bytes_per_site : t -> float array
(** Total bytes stored on each site: Σ fraction width × rows. *)

val execute_transaction : t -> int -> counters
(** Execute one occurrence of the given transaction (each query once, at
    its statistical row count, ignoring frequency). *)

val run_workload : ?repetitions:int -> t -> counters
(** Execute the complete workload with the frequency statistics applied —
    the operational counterpart of the cost model.  With [repetitions = 1]
    (default), [bytes_read/written/transferred] equal the corresponding
    fields of {!Vpart.Cost_model.breakdown}. *)

val run_trace : ?weighted:bool -> t -> seed:int -> length:int -> counters
(** Execute [length] transactions sampled at random — a simulated live
    mix.  With [~weighted:true] transactions are drawn proportionally to
    their total query frequency instead of uniformly. *)

(** {1 Failure analysis}

    Vertical partitioning interacts with availability: a replicated
    attribute survives the loss of one of its sites, a single-copy one
    does not.  {!survive_site_failure} asks, for each transaction, whether
    some surviving site still hosts the transaction's complete read set —
    i.e. whether the transaction could be re-homed and keep running
    single-sited while the failed site is down. *)

type failure_report = {
  failed_site : int;
  runnable_txns : int;       (** transactions with a full read set on some
                                 surviving site *)
  total_txns : int;
  lost_attrs : int;          (** attributes whose only copy was lost *)
  runnable_weight : float;   (** frequency-weighted share of runnable
                                 transactions, in [0, 1] *)
}

val survive_site_failure : t -> failed:int -> failure_report
(** @raise Invalid_argument if [failed] is out of range or the deployment
    has a single site. *)

val pp_counters : Format.formatter -> counters -> unit
