(* Same-answers record of the simulated-annealing solver: prints, for a
   fixed grid of runs, the reported cost and objective (6) as hex floats
   and the accepted moves, moves and epochs of the search.  The runtest
   rule diffs the output against sa_golden.expected, so any change to
   the annealer's trajectory or its float results fails the suite.

   The grid: the 15 inputs of the benchmark's sa-mix pool with its
   options, then every bundled instance (the directory given as the
   first argument) × S = 2..4 × replicated/disjoint × latency off/on
   (pl = 1) × {λ = 0.1, λ = 0.9, λ = 0.9 with a 3-chain portfolio}. *)

open Vpart

let line name (r : Sa_solver.result) =
  Printf.printf "%s cost=%h obj6=%h accepted=%d moves=%d epochs=%d\n" name
    r.Sa_solver.cost r.Sa_solver.objective6 r.Sa_solver.accepted
    r.Sa_solver.iterations r.Sa_solver.outer_rounds

(* The sa-mix pool: rnd{A,B}t64x100 × update 10/50 % × replicated/
   disjoint, cycled over 15 seeds, at S = 4 and the paper's λ = 0.9. *)
let sa_mix () =
  let cells =
    List.concat_map
      (fun shape ->
         List.concat_map
           (fun update ->
              List.map (fun repl -> (shape, update, repl)) [ true; false ])
           [ 10; 50 ])
      [ "rndAt64x100"; "rndBt64x100" ]
    |> Array.of_list
  in
  for e = 0 to 14 do
    let shape, update, replicated = cells.(e mod Array.length cells) in
    let params =
      { (Instance_gen.find shape) with Instance_gen.update_percent = update }
    in
    let inst = Instance_gen.generate ~seed:(e + 1) params in
    let options =
      { Sa_solver.default_options with
        Sa_solver.num_sites = 4;
        p = 8.;
        lambda = 0.9;
        seed = e + 1;
        allow_replication = replicated;
        certify = true;
      }
    in
    line
      (Printf.sprintf "sa-mix/%d %s u%d %s" e shape update
         (if replicated then "repl" else "disj"))
      (Sa_solver.solve ~options inst)
  done

let bundled dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  List.iter
    (fun file ->
       let inst = Codec.load_instance (Filename.concat dir file) in
       for sites = 2 to 4 do
         List.iter
           (fun replicated ->
              List.iter
                (fun latency ->
                   List.iter
                     (fun (variant, lambda, restarts) ->
                        let options =
                          { Sa_solver.default_options with
                            Sa_solver.num_sites = sites;
                            lambda;
                            allow_replication = replicated;
                            latency;
                            restarts;
                          }
                        in
                        line
                          (Printf.sprintf "%s S=%d %s lat=%s %s"
                             (Filename.chop_suffix file ".json") sites
                             (if replicated then "repl" else "disj")
                             (if latency = None then "off" else "on")
                             variant)
                          (Sa_solver.solve ~options inst))
                     [ ("l0.1", 0.1, 1); ("l0.9", 0.9, 1);
                       ("l0.9x3", 0.9, 3) ])
                [ None; Some 1. ])
           [ true; false ]
       done)
    files

let () =
  sa_mix ();
  bundled Sys.argv.(1)
