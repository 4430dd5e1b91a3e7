(** Input splitting and the ordering heuristic (§3.2).

    Route simulation inputs are ordered by {e the last IP address of the
    prefix} (done offline in the input route building service) and cut
    into runs of whole shard keys by the planner of
    {!Hoyan_sim.Route_sim.runs}.  Input flows are ordered by destination
    address and split the same way.  Because both sides follow the same
    ordering, a traffic subtask's destination range overlaps only a few
    route subtasks' covered ranges, so its worker loads only those RIB
    files.

    The [Random] strategy reproduces the paper's comparison baseline:
    random partitions make every traffic subtask depend on essentially
    every route subtask (Figure 5d). *)

open Hoyan_net

type strategy = Hoyan_sim.Route_sim.order = Ordered | Random of int (* seed *)

let chunk (arr : 'a array) (n : int) : 'a list list =
  let len = Array.length arr in
  let n = max 1 (min n len) in
  let per = (len + n - 1) / n in
  List.init n (fun i ->
      let lo = i * per and hi = min len ((i + 1) * per) in
      if lo >= hi then [] else Array.to_list (Array.sub arr lo (hi - lo)))
  |> List.filter (fun c -> c <> [])

(** Split input flows into [subtasks] subsets, each with its destination
    address range. *)
let split_flows ~(strategy : strategy) ~(subtasks : int) (flows : Flow.t list)
    : (Flow.t list * (Ip.t * Ip.t)) list =
  let arr = Array.of_list flows in
  (match strategy with
  | Ordered ->
      Array.sort (fun (a : Flow.t) b -> Ip.compare a.Flow.dst b.Flow.dst) arr
  | Random seed -> Hoyan_sim.Route_sim.shuffle seed arr);
  chunk arr subtasks
  |> List.map (fun fs ->
         let dsts = List.map (fun (f : Flow.t) -> f.Flow.dst) fs in
         let lo =
           List.fold_left
             (fun acc d -> if Ip.compare d acc < 0 then d else acc)
             (List.hd dsts) dsts
         in
         let hi =
           List.fold_left
             (fun acc d -> if Ip.compare d acc > 0 then d else acc)
             (List.hd dsts) dsts
         in
         (fs, (lo, hi)))

(** Range overlap test used to decide subtask dependencies: does the
    traffic subtask's destination range intersect the route subtask's
    covered range?  (Ranges from different address families never
    overlap.) *)
let ranges_overlap ((alo, ahi) : Ip.t * Ip.t) ((blo, bhi) : Ip.t * Ip.t) =
  Ip.compare alo bhi <= 0 && Ip.compare blo ahi <= 0
