(* Shared workloads and pretty-printing helpers for the bench harness. *)

module G = Hoyan_workload.Generator

let quick = ref false

(* Workloads are generated once and shared across sections. *)
let wan =
  lazy (G.generate (if !quick then { G.wan with G.g_prefixes = 800 } else G.wan))

let wan_dcn =
  lazy
    (G.generate
       (if !quick then
          { G.wan_dcn with G.g_dcs_per_region = 40; g_prefixes = 1000 }
        else G.wan_dcn))
let small = lazy (G.generate G.small)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.ksprintf (fun s -> print_string (s ^ "\n")) fmt

let seconds = Printf.sprintf "%.2fs"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Quantiles of a float list (q in [0,1]). *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (q *. float_of_int (n - 1)) in
      List.nth sorted idx

(* Print an empirical CDF at decile points. *)
let print_cdf label (xs : float list) ~unit =
  row "%s (n=%d):" label (List.length xs);
  List.iter
    (fun q ->
      row "  p%02.0f  %8.3f %s" (q *. 100.) (quantile q xs) unit)
    [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.95; 1.0 ]
