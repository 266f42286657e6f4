(* Folds the events of one traced pass into per-layer totals: span time
   (inclusive and self) and calls by span name, counter totals, the
   model size each [mip.solve] span was opened with, and the delay from
   each [mip.solve] opening to its first [mip.incumbent].

   The [bench.root_lp] subtree is left out: the benchmark times the root
   LP separately, outside the requests, and its refactorizations must not
   be charged to the branch-and-bound. *)

type span = { mutable total : float; mutable self : float; mutable calls : int }

type t = {
  spans : (string, span) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
  mutable model_rows : int list;
  mutable model_cols : int list;
  mutable first_incumbent : float list;  (* seconds, one per solve *)
}

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None -> { total = 0.; self = 0.; calls = 0 }

let total t name = (span t name).total
let self t name = (span t name).self
let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.

let add_counters t cs =
  List.iter
    (fun (name, v) -> Hashtbl.replace t.counters name (counter t name +. v))
    cs

let int_attr attrs key =
  match List.assoc_opt key attrs with Some (Obs.Int i) -> Some i | _ -> None

(* Spans and points opened off the main domain carry a "domain" attribute;
   main-domain ones carry none. *)
let domain attrs = Option.value (int_attr attrs "domain") ~default:(-1)

let of_events events =
  let t =
    {
      spans = Hashtbl.create 32;
      counters = Hashtbl.create 32;
      model_rows = [];
      model_cols = [];
      first_incumbent = [];
    }
  in
  let profile = Profile.of_events events in
  let rec walk (n : Profile.node) =
    if n.Profile.name <> "bench.root_lp" then begin
      let s = span t n.Profile.name in
      s.total <- s.total +. n.Profile.total;
      s.self <- s.self +. n.Profile.self;
      s.calls <- s.calls + n.Profile.calls;
      Hashtbl.replace t.spans n.Profile.name s;
      add_counters t n.Profile.counters;
      List.iter walk n.Profile.children
    end
  in
  List.iter walk profile.Profile.roots;
  add_counters t profile.Profile.counters;
  (* Open mip.solve spans still waiting for an incumbent, by domain. *)
  let waiting = Hashtbl.create 4 in
  List.iter
    (fun (ts, ev) ->
       match ev with
       | Obs.Span_open { name = "mip.solve"; attrs; _ } ->
         Hashtbl.replace waiting (domain attrs) ts;
         Option.iter (fun r -> t.model_rows <- r :: t.model_rows)
           (int_attr attrs "rows");
         Option.iter (fun c -> t.model_cols <- c :: t.model_cols)
           (int_attr attrs "cols")
       | Obs.Point { name = "mip.incumbent"; attrs } -> (
         let d = domain attrs in
         match Hashtbl.find_opt waiting d with
         | Some t0 ->
           t.first_incumbent <- (ts -. t0) :: t.first_incumbent;
           Hashtbl.remove waiting d
         | None -> ())
       | _ -> ())
    events;
  t
