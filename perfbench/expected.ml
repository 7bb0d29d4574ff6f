(* Expected outputs. Every simulated output the workloads produce is
   checked against one of these; none of them is a metric. The pinned
   files live in [perfbench/expected/]; the paper tables and the
   collusion catalogue are the repository's own committed results. *)

let pinned name = Filename.concat "perfbench/expected" name

(* Where the committed CSV of each paper experiment lives. [matrix6] has
   none in [_results/], so the benchmark pins a copy. *)
let table_path id =
  if id = "matrix6" then pinned "matrix6.csv" else Filename.concat "_results" (id ^ ".csv")

let paper_tables () =
  List.map
    (fun (e : Uldma_sim.Experiments.experiment) ->
      (e.Uldma_sim.Experiments.id, Util.read_file (table_path e.Uldma_sim.Experiments.id)))
    Uldma_sim.Experiments.all

let catalogue () = Util.lines (Util.read_file "_results/collusion_catalogue.csv")

(* CSV rows keyed by their first column. *)
let keyed_rows name =
  Util.lines (Util.read_file (pinned name))
  |> List.filter (fun l -> not (String.starts_with ~prefix:"#" l))
  |> List.map (fun l ->
         match String.index_opt l ',' with
         | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> (l, ""))

let explore_pins () = keyed_rows "explore.csv"
let kv_pins () = keyed_rows "kv.csv"
