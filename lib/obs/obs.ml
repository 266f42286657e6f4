(* Observability layer: monotone clock, span/counter/gauge/point events,
   pluggable sinks, in-process metrics, and the JSONL schema reader used
   by `vpart_cli trace summarize` and the tests.

   Hot-path contract: with no sink installed and metrics collection off,
   every emitter is one mutable-flag test.  Call sites that must build
   attribute lists guard with [enabled ()] first.

   Domain safety: emitters may be called from worker domains
   (Mip.solve ~jobs, the SA portfolio, Par batches).  The clock clamp is
   a CAS loop, span stacks are per-domain (Domain.DLS), span ids come
   from an Atomic, sink emission and the Metrics tables are
   mutex-guarded, and events emitted off the main domain carry a
   [domain] attr so [Reader.check_nesting] can validate each domain's
   span stack separately.  Installing a sink ([with_sink]) remains a
   main-domain affair; the sequential (main-domain-only) event stream is
   byte-identical to the unguarded implementation. *)

module Clock = struct
  (* Monotone clamp over the wall clock: a backwards adjustment freezes
     [now] until real time catches up (documented in the .mli).  The
     clamp is process-wide across domains: CAS loop over the last value
     returned. *)
  let last = Atomic.make 0.

  let rec now () =
    let t = Unix.gettimeofday () in
    let l = Atomic.get last in
    if t > l then
      if Atomic.compare_and_set last l t then t else now ()
    else l

  let since t0 = now () -. t0
end

type value = Int of int | Float of float | Bool of bool | Str of string

type attrs = (string * value) list

type event =
  | Span_open of { id : int; parent : int option; name : string; attrs : attrs }
  | Span_close of { id : int; name : string; dur : float }
  | Counter of { name : string; add : float; attrs : attrs }
  | Gauge of { name : string; value : float; attrs : attrs }
  | Point of { name : string; attrs : attrs }

let schema_version = 1

type sink = {
  emit : ts:float -> event -> unit;
  flush : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* [Metrics.enable]/[disable] must refresh the emitter's cached activity
   flag, but the emitter state is defined below; wired up via this hook. *)
let metrics_toggle_hook = ref (fun () -> ())

module Metrics = struct
  let on = Atomic.make false

  (* All table mutation and reading happens under [lock]: counters may
     be bumped concurrently from worker domains (Hashtbl is not
     domain-safe).  The off fast path never touches the lock. *)
  let lock = Mutex.create ()

  let locked f =
    Mutex.lock lock;
    match f () with
    | v -> Mutex.unlock lock; v
    | exception e -> Mutex.unlock lock; raise e

  let counters : (string, float ref) Hashtbl.t = Hashtbl.create 32
  let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 16

  type mutable_hist = {
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_buckets : (int, int ref) Hashtbl.t;
        (* log-scale sample counts for percentile estimation, see
           [bucket_of] *)
  }

  let hists : (string, mutable_hist) Hashtbl.t = Hashtbl.create 16

  (* Percentiles must be deterministic and bounded-memory (histograms can
     take millions of samples under bench), so samples land in log-scale
     buckets with ratio 2^(1/8) — worst-case quantile error ~4.4%, a few
     hundred live buckets across the full double range.  Non-positive
     samples (possible for caller-supplied [observe] values, not for
     durations) share one underflow bucket. *)
  let bucket_of v =
    if v > 0. then int_of_float (Float.floor (8. *. Float.log2 v)) else min_int

  let bucket_rep idx =
    if idx = min_int then neg_infinity
    else Float.pow 2. ((float_of_int idx +. 0.5) /. 8.)

  let enable () =
    Atomic.set on true;
    !metrics_toggle_hook ()

  let disable () =
    Atomic.set on false;
    !metrics_toggle_hook ()

  let enabled () = Atomic.get on

  let reset () =
    locked @@ fun () ->
    Hashtbl.reset counters;
    Hashtbl.reset gauges;
    Hashtbl.reset hists

  let add_counter name v =
    locked @@ fun () ->
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace counters name (ref v)

  let set_gauge name v =
    locked @@ fun () ->
    match Hashtbl.find_opt gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace gauges name (ref v)

  let bucket_incr h v =
    let idx = bucket_of v in
    match Hashtbl.find_opt h.h_buckets idx with
    | Some r -> incr r
    | None -> Hashtbl.replace h.h_buckets idx (ref 1)

  let observe name v =
    locked @@ fun () ->
    match Hashtbl.find_opt hists name with
    | Some h ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      bucket_incr h v
    | None ->
      let h =
        {
          h_count = 1;
          h_sum = v;
          h_min = v;
          h_max = v;
          h_buckets = Hashtbl.create 8;
        }
      in
      bucket_incr h v;
      Hashtbl.replace hists name h

  (* Nearest-rank percentile over the log-scale buckets: find the bucket
     holding the ceil(q*count)-th sample, report its geometric midpoint
     clamped into the exact [min,max] envelope (so single-sample and
     extreme quantiles are exact). *)
  let percentile h q =
    let buckets =
      Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) h.h_buckets []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
    in
    let rec find cum = function
      | [] -> h.h_max
      | (idx, n) :: rest ->
        let cum = cum + n in
        if cum >= rank then bucket_rep idx else find cum rest
    in
    Float.min h.h_max (Float.max h.h_min (find 0 buckets))

  type hist = {
    count : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  type snapshot = {
    counters : (string * float) list;
    gauges : (string * float) list;
    hists : (string * hist) list;
  }

  let sorted_bindings tbl f =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

  let snapshot () =
    locked @@ fun () ->
    {
      counters = sorted_bindings counters (fun r -> !r);
      gauges = sorted_bindings gauges (fun r -> !r);
      hists =
        sorted_bindings hists (fun h ->
            {
              count = h.h_count;
              sum = h.h_sum;
              min = h.h_min;
              max = h.h_max;
              p50 = percentile h 0.50;
              p90 = percentile h 0.90;
              p99 = percentile h 0.99;
            });
    }

  let counter_value name =
    locked @@ fun () ->
    match Hashtbl.find_opt counters name with Some r -> !r | None -> 0.

  let to_json (s : snapshot) =
    let obj_of f xs = Json.Obj (List.map (fun (k, v) -> (k, f v)) xs) in
    Json.Obj
      [
        ("counters", obj_of (fun v -> Json.Float v) s.counters);
        ("gauges", obj_of (fun v -> Json.Float v) s.gauges);
        ( "hists",
          obj_of
            (fun (h : hist) ->
               Json.Obj
                 [
                   ("count", Json.Int h.count);
                   ("sum", Json.Float h.sum);
                   ("min", Json.Float h.min);
                   ("max", Json.Float h.max);
                   ("p50", Json.Float h.p50);
                   ("p90", Json.Float h.p90);
                   ("p99", Json.Float h.p99);
                 ])
            s.hists );
      ]

  let pp ppf (s : snapshot) =
    Format.fprintf ppf "@[<v>metrics:";
    if s.counters = [] && s.gauges = [] && s.hists = [] then
      Format.fprintf ppf " (empty)"
    else begin
      List.iter
        (fun (name, v) -> Format.fprintf ppf "@,  %-36s %14.6g" name v)
        s.counters;
      List.iter
        (fun (name, v) ->
           Format.fprintf ppf "@,  %-36s %14.6g (gauge)" name v)
        s.gauges;
      List.iter
        (fun (name, (h : hist)) ->
           Format.fprintf ppf
             "@,  %-36s n=%d sum=%.6g min=%.6g p50=%.6g p90=%.6g p99=%.6g \
              max=%.6g"
             name h.count h.sum h.min h.p50 h.p90 h.p99 h.max)
        s.hists
    end;
    Format.fprintf ppf "@]"
end

(* ------------------------------------------------------------------ *)
(* Global emitter state                                                *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable sink : sink option;   (* installed/removed on the main domain *)
  mutable t0 : float;           (* sink time origin *)
  next_id : int Atomic.t;
  mutable active : bool;        (* sink <> None || Metrics.enabled *)
}

let st = { sink = None; t0 = 0.; next_id = Atomic.make 0; active = false }

(* Open span ids, innermost first, per domain: spans opened on a worker
   domain nest among themselves, never under another domain's spans. *)
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Serializes sink emission across domains, so concurrent events cannot
   interleave inside a JSONL line and file timestamps stay
   non-decreasing (the ts is taken under the lock). *)
let emit_lock = Mutex.create ()

let sink_on () = match st.sink with Some _ -> true | None -> false

let refresh_active () = st.active <- sink_on () || Metrics.enabled ()
let () = metrics_toggle_hook := refresh_active

let set_sink s =
  st.sink <- s;
  st.t0 <- Clock.now ();
  Atomic.set st.next_id 0;
  Domain.DLS.get stack_key := [];
  refresh_active ()

let enabled () =
  (* Metrics.enable/disable don't go through [set_sink]; recompute. *)
  refresh_active ();
  st.active

let emit ev =
  match st.sink with
  | None -> ()
  | Some s ->
    Mutex.lock emit_lock;
    (match s.emit ~ts:(Clock.since st.t0) ev with
     | () -> Mutex.unlock emit_lock
     | exception e -> Mutex.unlock emit_lock; raise e)

let with_sink sink f =
  let prev = st.sink in
  set_sink (Some sink);
  Fun.protect
    ~finally:(fun () ->
        sink.flush ();
        set_sink prev)
    f

(* Events emitted off the main domain are tagged with the runtime domain
   id, so a parallel trace remains attributable and checkable per
   domain.  Main-domain events carry no tag: the sequential stream is
   byte-identical to the pre-parallelism schema. *)
let domain_attrs attrs =
  if Domain.is_main_domain () then attrs
  else attrs @ [ ("domain", Int (Domain.self () :> int)) ]

(* Set below, once [gauge] exists: samples GC counters at span close
   when {!set_gc_sampling} is on. *)
let gc_sample_hook : (unit -> unit) ref = ref (fun () -> ())

let with_span ?(attrs = []) name f =
  refresh_active ();
  if not st.active then f ()
  else begin
    let t0 = Clock.now () in
    let stack = Domain.DLS.get stack_key in
    let id =
      match st.sink with
      | None -> -1
      | Some _ ->
        let id = Atomic.fetch_and_add st.next_id 1 in
        let parent = match !stack with [] -> None | p :: _ -> Some p in
        stack := id :: !stack;
        emit (Span_open { id; parent; name; attrs = domain_attrs attrs });
        id
    in
    Fun.protect
      ~finally:(fun () ->
          let dur = Clock.since t0 in
          if id >= 0 then begin
            (match !stack with
             | top :: rest when top = id -> stack := rest
             | _ -> ()  (* sink swapped mid-span; drop silently *));
            emit (Span_close { id; name; dur })
          end;
          if Metrics.enabled () then Metrics.observe ("span." ^ name) dur;
          !gc_sample_hook ())
      f
  end

let count ?(attrs = []) name v =
  if st.active then begin
    if Metrics.enabled () then Metrics.add_counter name v;
    if sink_on () then emit (Counter { name; add = v; attrs })
  end

let gauge ?(attrs = []) name v =
  if st.active then begin
    if Metrics.enabled () then Metrics.set_gauge name v;
    if sink_on () then emit (Gauge { name; value = v; attrs })
  end

let point ?(attrs = []) name =
  if st.active then begin
    if Metrics.enabled () then Metrics.add_counter name 1.;
    if sink_on () then emit (Point { name; attrs = domain_attrs attrs })
  end

(* --- GC sampling -------------------------------------------------- *)

let gc_sampling_flag = ref false

let set_gc_sampling b = gc_sampling_flag := b

let sample_gc () =
  if !gc_sampling_flag && st.active then begin
    (* [quick_stat] reads counters without forcing a heap walk, so the
       sample is cheap enough for span boundaries.  Words are reported
       as floats (minor_words already is one; a heap beyond 2^53 words
       is not a concern). *)
    let s = Gc.quick_stat () in
    gauge "gc.minor_words" s.Gc.minor_words;
    gauge "gc.major_words" s.Gc.major_words;
    gauge "gc.heap_words" (float_of_int s.Gc.heap_words);
    gauge "gc.compactions" (float_of_int s.Gc.compactions)
  end

let () = gc_sample_hook := sample_gc

let observe name v = if Metrics.enabled () then Metrics.observe name v

let timed name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> Metrics.observe name (Clock.since t0)) f
  end

(* ------------------------------------------------------------------ *)
(* Event rendering                                                     *)
(* ------------------------------------------------------------------ *)

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b
  | Str s -> Json.String s

let json_of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

let event_to_json ~ts ev =
  let base ev_name rest =
    Json.Obj
      (("v", Json.Int schema_version)
       :: ("ev", Json.String ev_name)
       :: ("ts", Json.Float ts)
       :: rest)
  in
  match ev with
  | Span_open { id; parent; name; attrs } ->
    base "span_open"
      [
        ("id", Json.Int id);
        ("parent", (match parent with Some p -> Json.Int p | None -> Json.Null));
        ("name", Json.String name);
        ("attrs", json_of_attrs attrs);
      ]
  | Span_close { id; name; dur } ->
    base "span_close"
      [ ("id", Json.Int id); ("name", Json.String name); ("dur", Json.Float dur) ]
  | Counter { name; add; attrs } ->
    base "counter"
      [
        ("name", Json.String name);
        ("add", Json.Float add);
        ("attrs", json_of_attrs attrs);
      ]
  | Gauge { name; value; attrs } ->
    base "gauge"
      [
        ("name", Json.String name);
        ("value", Json.Float value);
        ("attrs", json_of_attrs attrs);
      ]
  | Point { name; attrs } ->
    base "point" [ ("name", Json.String name); ("attrs", json_of_attrs attrs) ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let null_sink () = { emit = (fun ~ts:_ _ -> ()); flush = (fun () -> ()) }

let jsonl_sink write =
  {
    emit =
      (fun ~ts ev ->
         write (Json.to_string ~minify:true (event_to_json ~ts ev));
         write "\n");
    flush = (fun () -> ());
  }

let pp_attr_value ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%.6g" f
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.pp_print_string ppf s

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    List.iter
      (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_attr_value v)
      attrs

let progress_sink ?ppf () =
  let ppf = match ppf with Some p -> p | None -> Format.err_formatter in
  let depth = ref 0 in
  let indent () = String.make (2 * !depth) ' ' in
  {
    emit =
      (fun ~ts ev ->
         (match ev with
          | Span_open { name; attrs; _ } ->
            Format.fprintf ppf "[%8.3fs] %s> %s%a@." ts (indent ()) name
              pp_attrs attrs;
            incr depth
          | Span_close { name; dur; _ } ->
            decr depth;
            if !depth < 0 then depth := 0;
            Format.fprintf ppf "[%8.3fs] %s< %s (%.3fs)@." ts (indent ()) name
              dur
          | Counter { name; add; attrs } ->
            Format.fprintf ppf "[%8.3fs] %s+ %s %.6g%a@." ts (indent ()) name
              add pp_attrs attrs
          | Gauge { name; value; attrs } ->
            Format.fprintf ppf "[%8.3fs] %s= %s %.6g%a@." ts (indent ()) name
              value pp_attrs attrs
          | Point { name; attrs } ->
            Format.fprintf ppf "[%8.3fs] %s* %s%a@." ts (indent ()) name
              pp_attrs attrs))
    ;
    flush = (fun () -> Format.pp_print_flush ppf ());
  }

let tee sinks =
  {
    emit = (fun ~ts ev -> List.iter (fun s -> s.emit ~ts ev) sinks);
    flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
  }

(* ------------------------------------------------------------------ *)
(* Reader: schema validation                                           *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  exception Bad of string

  let bad fmt = Format.kasprintf (fun m -> raise (Bad m)) fmt

  let field name json =
    match Json.member_opt name json with
    | Some v -> v
    | None -> bad "missing field %S" name

  let as_int name = function
    | Json.Int i -> i
    | Json.Float f when Float.is_integer f -> int_of_float f
    | _ -> bad "field %S must be an integer" name

  let as_float name = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> bad "field %S must be a number" name

  let as_string name = function
    | Json.String s -> s
    | _ -> bad "field %S must be a string" name

  let attrs_of_json name = function
    | Json.Obj fields ->
      List.map
        (fun (k, v) ->
           ( k,
             match v with
             | Json.Int i -> Int i
             | Json.Float f -> Float f
             | Json.Bool b -> Bool b
             | Json.String s -> Str s
             | _ -> bad "attr %S of %S must be a scalar" k name ))
        fields
    | Json.Null -> []
    | _ -> bad "field %S must be an object" name

  let event_of_json json =
    try
      (match json with Json.Obj _ -> () | _ -> bad "event must be an object");
      let v = as_int "v" (field "v" json) in
      if v <> schema_version then
        bad "unsupported schema version %d (expected %d)" v schema_version;
      let ts = as_float "ts" (field "ts" json) in
      if not (Float.is_finite ts) || ts < 0. then
        bad "field \"ts\" must be a finite non-negative number";
      let name () = as_string "name" (field "name" json) in
      let attrs () =
        match Json.member_opt "attrs" json with
        | None -> []
        | Some a -> attrs_of_json "attrs" a
      in
      let ev =
        match as_string "ev" (field "ev" json) with
        | "span_open" ->
          let parent =
            match Json.member_opt "parent" json with
            | None | Some Json.Null -> None
            | Some p -> Some (as_int "parent" p)
          in
          Span_open
            {
              id = as_int "id" (field "id" json);
              parent;
              name = name ();
              attrs = attrs ();
            }
        | "span_close" ->
          let dur = as_float "dur" (field "dur" json) in
          if not (Float.is_finite dur) || dur < 0. then
            bad "field \"dur\" must be a finite non-negative number";
          Span_close { id = as_int "id" (field "id" json); name = name (); dur }
        | "counter" ->
          Counter
            {
              name = name ();
              add = as_float "add" (field "add" json);
              attrs = attrs ();
            }
        | "gauge" ->
          Gauge
            {
              name = name ();
              value = as_float "value" (field "value" json);
              attrs = attrs ();
            }
        | "point" -> Point { name = name (); attrs = attrs () }
        | other -> bad "unknown event kind %S" other
      in
      Ok (ts, ev)
    with
    | Bad m -> Error m
    | Invalid_argument m -> Error m

  let read_string contents =
    let lines = String.split_on_char '\n' contents in
    let rec go lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match Json.of_string line with
          | exception Json.Parse_error m ->
            Error (Printf.sprintf "line %d: JSON parse error: %s" lineno m)
          | json -> (
            match event_of_json json with
            | Ok ev -> go (lineno + 1) (ev :: acc) rest
            | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
        end
    in
    go 1 [] lines

  let read_file path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error m -> Error m
    | contents -> read_string contents

  (* Span discipline is per domain: events emitted off the main domain
     carry a ["domain"] int attr (absent = main domain, runtime id 0),
     and spans opened on a domain nest among that domain's spans only.
     A [span_close] has no attrs; it belongs to the domain that opened
     its id.  Sequential traces (no tagged events) degenerate to the
     original single-stack check. *)
  let check_nesting events =
    let open_spans = Hashtbl.create 32 in   (* id -> name *)
    let span_domain = Hashtbl.create 32 in  (* id -> domain *)
    let stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 4 in
    let stack_of dom =
      match Hashtbl.find_opt stacks dom with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace stacks dom r;
        r
    in
    let domain_of attrs =
      match List.assoc_opt "domain" attrs with
      | Some (Int d) -> d
      | _ -> 0
    in
    let rec check = function
      | [] ->
        Hashtbl.fold
          (fun _dom stack acc ->
             match (acc, !stack) with
             | (Error _, _) | (_, []) -> acc
             | (Ok (), id :: _) ->
               Error
                 (Printf.sprintf "span %d (%s) never closed" id
                    (try Hashtbl.find open_spans id with Not_found -> "?")))
          stacks (Ok ())
      | (_, ev) :: rest -> (
        match ev with
        | Span_open { id; parent; name; attrs } ->
          let dom = domain_of attrs in
          let stack = stack_of dom in
          if Hashtbl.mem open_spans id then
            Error (Printf.sprintf "span id %d opened twice" id)
          else begin
            match parent with
            | Some p when not (Hashtbl.mem open_spans p) ->
              Error
                (Printf.sprintf "span %d (%s) opened under unknown parent %d"
                   id name p)
            | Some p when (match !stack with t :: _ -> t <> p | [] -> true) ->
              Error
                (Printf.sprintf
                   "span %d (%s): parent %d is not the innermost open span" id
                   name p)
            | None when !stack <> [] ->
              Error
                (Printf.sprintf
                   "span %d (%s) claims no parent inside an open span" id name)
            | _ ->
              Hashtbl.replace open_spans id name;
              Hashtbl.replace span_domain id dom;
              stack := id :: !stack;
              check rest
          end
        | Span_close { id; name; _ } -> (
          let stack =
            match Hashtbl.find_opt span_domain id with
            | Some dom -> stack_of dom
            | None -> stack_of 0
          in
          match !stack with
          | top :: rest_stack when top = id ->
            stack := rest_stack;
            Hashtbl.remove open_spans id;
            check rest
          | top :: _ ->
            Error
              (Printf.sprintf
                 "span close %d (%s) does not match innermost open span %d" id
                 name top)
          | [] ->
            Error (Printf.sprintf "orphan span close %d (%s)" id name))
        | Counter _ | Gauge _ | Point _ -> check rest)
    in
    check events
end

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

module Summary = struct
  type phase = { calls : int; total : float }

  type t = {
    events : int;
    duration : float;
    phases : (string * phase) list;
    counters : (string * float) list;
    gauges : (string * float) list;
    points : (string * int) list;
    solve_start : float option;
    incumbents : (float * float) list;
    bounds : (float * float) list;
    time_to_first_incumbent : float option;
  }

  let attr_float key attrs =
    List.find_map
      (fun (k, v) ->
         if k <> key then None
         else
           match v with
           | Float f -> Some f
           | Int i -> Some (float_of_int i)
           | _ -> None)
      attrs

  let of_events events =
    let phases : (string, phase ref) Hashtbl.t = Hashtbl.create 16 in
    let phase_order = ref [] in
    let counters : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
    let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
    let points : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    let duration = ref 0. in
    let solve_start = ref None in
    let incumbents = ref [] and bounds = ref [] in
    List.iter
      (fun (ts, ev) ->
         if ts > !duration then duration := ts;
         match ev with
         | Span_open { name; _ } ->
           if not (Hashtbl.mem phases name) then begin
             Hashtbl.replace phases name (ref { calls = 0; total = 0. });
             phase_order := name :: !phase_order
           end;
           if name = "mip.solve" && !solve_start = None then
             solve_start := Some ts
         | Span_close { name; dur; _ } ->
           let r =
             match Hashtbl.find_opt phases name with
             | Some r -> r
             | None ->
               let r = ref { calls = 0; total = 0. } in
               Hashtbl.replace phases name r;
               phase_order := name :: !phase_order;
               r
           in
           r := { calls = !r.calls + 1; total = !r.total +. dur }
         | Counter { name; add; _ } -> (
           match Hashtbl.find_opt counters name with
           | Some r -> r := !r +. add
           | None -> Hashtbl.replace counters name (ref add))
         | Gauge { name; value; _ } -> (
           match Hashtbl.find_opt gauges name with
           | Some r -> r := value
           | None -> Hashtbl.replace gauges name (ref value))
         | Point { name; attrs } ->
           (match Hashtbl.find_opt points name with
            | Some r -> incr r
            | None -> Hashtbl.replace points name (ref 1));
           (match name, attr_float "obj" attrs with
            | "mip.incumbent", Some obj ->
              incumbents := (ts, obj) :: !incumbents
            | _ -> ());
           (match name, attr_float "bound" attrs with
            | "mip.bound", Some b -> bounds := (ts, b) :: !bounds
            | _ -> ()))
      events;
    let sorted tbl f =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])
    in
    let incumbents = List.rev !incumbents in
    let ttfi =
      match incumbents with
      | [] -> None
      | (ts, _) :: _ ->
        Some (ts -. Option.value !solve_start ~default:0.)
    in
    {
      events = List.length events;
      duration = !duration;
      phases =
        List.rev_map
          (fun name -> (name, !(Hashtbl.find phases name)))
          !phase_order;
      counters = sorted counters (fun r -> !r);
      gauges = sorted gauges (fun r -> !r);
      points = sorted points (fun r -> !r);
      solve_start = !solve_start;
      incumbents;
      bounds = List.rev !bounds;
      time_to_first_incumbent = ttfi;
    }

  let to_json t =
    let obj_of f xs = Json.Obj (List.map (fun (k, v) -> (k, f v)) xs) in
    let opt_float = function Some f -> Json.Float f | None -> Json.Null in
    let ts_pairs xs =
      Json.List
        (List.map
           (fun (ts, v) ->
              Json.Obj [ ("ts", Json.Float ts); ("value", Json.Float v) ])
           xs)
    in
    Json.Obj
      [
        ("schema_version", Json.Int schema_version);
        ("events", Json.Int t.events);
        ("duration_seconds", Json.Float t.duration);
        ( "phases",
          Json.Obj
            (List.map
               (fun (name, p) ->
                  ( name,
                    Json.Obj
                      [
                        ("calls", Json.Int p.calls);
                        ("total_seconds", Json.Float p.total);
                      ] ))
               t.phases) );
        ("counters", obj_of (fun v -> Json.Float v) t.counters);
        ("gauges", obj_of (fun v -> Json.Float v) t.gauges);
        ("points", obj_of (fun n -> Json.Int n) t.points);
        ("solve_start", opt_float t.solve_start);
        ("incumbents", ts_pairs t.incumbents);
        ("bounds", ts_pairs t.bounds);
        ("time_to_first_incumbent", opt_float t.time_to_first_incumbent);
      ]

  let pp ppf t =
    Format.fprintf ppf "@[<v>trace summary (schema v%d): %d events, %.3fs"
      schema_version t.events t.duration;
    if t.phases <> [] then begin
      Format.fprintf ppf "@,per-phase breakdown:";
      List.iter
        (fun (name, p) ->
           Format.fprintf ppf "@,  %-28s %5d call%s %10.3fs" name p.calls
             (if p.calls = 1 then " " else "s") p.total)
        t.phases
    end;
    if t.counters <> [] then begin
      Format.fprintf ppf "@,counters:";
      List.iter
        (fun (name, v) -> Format.fprintf ppf "@,  %-28s %16.6g" name v)
        t.counters
    end;
    if t.gauges <> [] then begin
      Format.fprintf ppf "@,gauges:";
      List.iter
        (fun (name, v) -> Format.fprintf ppf "@,  %-28s %16.6g" name v)
        t.gauges
    end;
    if t.points <> [] then begin
      Format.fprintf ppf "@,events:";
      List.iter
        (fun (name, n) -> Format.fprintf ppf "@,  %-28s %10d" name n)
        t.points
    end;
    (match t.time_to_first_incumbent with
     | Some dt -> Format.fprintf ppf "@,time-to-first-incumbent: %.3fs" dt
     | None -> ());
    if t.incumbents <> [] then begin
      Format.fprintf ppf "@,gap-vs-time (incumbent trajectory):";
      List.iter
        (fun (ts, obj) ->
           (* best proven bound known at this timestamp *)
           let bound =
             List.fold_left
               (fun acc (bts, b) -> if bts <= ts then Some b else acc)
               None t.bounds
           in
           match bound with
           | Some b when Float.is_finite b ->
             let gap =
               100. *. Float.abs (obj -. b) /. Float.max 1. (Float.abs obj)
             in
             Format.fprintf ppf "@,  %8.3fs  obj %14.6g  bound %14.6g  gap %6.2f%%"
               ts obj b gap
           | _ -> Format.fprintf ppf "@,  %8.3fs  obj %14.6g" ts obj)
        t.incumbents
    end;
    Format.fprintf ppf "@]"
end
