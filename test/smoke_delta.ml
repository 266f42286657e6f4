(* Fast delta-vs-full agreement smoke, run by `dune build @lint`: a
   fixed-seed sequence of moves, undos and commits through Delta_cost
   must track the from-scratch Cost_model objective to float precision
   on a bundled instance, and its site aggregates must match a fresh
   evaluator's rebuild (counts exactly, sums within the rounding bound)
   at every step.  Exits non-zero on the first disagreement, so drift of
   the delta kernel or of the annealer's aggregates fails the lint
   gate. *)

open Vpart

let () =
  let file = Sys.argv.(1) in
  let inst = Codec.load_instance file in
  let stats = Stats.compute inst ~p:8. in
  let lambda = 0.1 and pl = 1. and num_sites = 3 in
  let nt = stats.Stats.num_txns and na = stats.Stats.num_attrs in
  let st = Random.State.make [| 42 |] in
  let part =
    Partitioning.create ~num_sites ~num_txns:nt ~num_attrs:na
  in
  for t = 0 to nt - 1 do
    part.Partitioning.txn_site.(t) <- Random.State.int st num_sites
  done;
  Partitioning.repair_single_sitedness stats part;
  let dc = Delta_cost.create ~latency:(inst, pl) stats ~lambda part in
  let fresh () =
    Cost_model.objective stats ~lambda part
    +. (lambda *. Cost_model.latency inst ~pl part)
  in
  let scale = ref 0. in
  Array.iter (fun c -> scale := !scale +. Float.abs c) stats.Stats.c2;
  for t = 0 to nt - 1 do
    for a = 0 to na - 1 do
      scale := !scale +. Float.abs stats.Stats.c1.{t, a}
    done
  done;
  let fail step fmt =
    Printf.ksprintf
      (fun msg ->
         Printf.eprintf "smoke_delta: step %d: %s\n" step msg;
         exit 1)
      fmt
  in
  let worst = ref 0. in
  let check step =
    let want = fresh () and got = Delta_cost.objective dc in
    let diff = Float.abs (got -. want) in
    if diff > !worst then worst := diff;
    if diff > 1e-9 *. (1. +. Float.abs want) then
      fail step "delta %.17g vs fresh %.17g (diff %g)" got want diff;
    let rebuilt = Delta_cost.create stats ~lambda (Partitioning.copy part) in
    let close name kept fresh =
      Array.iteri
        (fun i row ->
           Array.iteri
             (fun j v ->
                if Float.abs (v -. fresh.(i).(j)) > 1e-9 *. (1. +. !scale) then
                  fail step "%s.(%d).(%d) is %.17g, rebuilt %.17g" name i j v
                    fresh.(i).(j))
             row)
        kept
    in
    close "coef" (Delta_cost.coef dc) (Delta_cost.coef rebuilt);
    close "score" (Delta_cost.score dc) (Delta_cost.score rebuilt);
    if Delta_cost.forced dc <> Delta_cost.forced rebuilt then
      fail step "forced differs from a rebuild";
    if Delta_cost.miss dc <> Delta_cost.miss rebuilt then
      fail step "miss differs from a rebuild"
  in
  check 0;
  for step = 1 to 400 do
    (match Random.State.int st 9 with
     | 0 | 1 | 2 ->
       Delta_cost.flip dc (Random.State.int st na)
         (Random.State.int st num_sites)
     | 3 | 4 | 5 ->
       Delta_cost.assign dc (Random.State.int st nt)
         (Random.State.int st num_sites)
     | 6 -> if Delta_cost.mark dc > 0 then Delta_cost.undo_move dc
     | 7 -> Delta_cost.commit dc
     | _ ->
       let k = 1 + Random.State.int st (min 3 nt) in
       let t0 = Random.State.int st (nt - k + 1) in
       Delta_cost.move_component dc
         (Array.init k (fun i -> t0 + i))
         [| Random.State.int st na |]
         (Random.State.int st num_sites));
    check step
  done;
  Printf.printf
    "smoke_delta: %s ok (400 moves, max drift %g, aggregates match)\n"
    (Filename.basename file) !worst
