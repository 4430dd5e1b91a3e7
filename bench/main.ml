(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers).

   Usage:
     dune exec bench/main.exe                  # every table and figure
     dune exec bench/main.exe -- table4 fig5a  # selected sections
     dune exec bench/main.exe -- --quick ...   # smaller workloads
     dune exec bench/main.exe -- --micro       # bechamel micro-benchmarks
     dune exec bench/main.exe -- --ablate      # design-choice ablations

   The verdict-latency benchmark lives in perfbench/; the correctness
   gates (parallel/sequential identity, chaos recovery, the server's
   byte-identity contract, the telemetry noop guard) run in the test
   suite. *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("table1", "scale requirements", B_scale.table1);
    ("figure1", "centralized simulation limits", B_scale.figure1);
    ("table2", "the 12 change types", B_changes.table2);
    ("table3", "capability matrix", B_changes.table3);
    ("figure5a", "distributed route simulation", B_scale.figure5a);
    ("figure5b", "distributed traffic simulation", B_scale.figure5b);
    ("figure5c", "subtask run-time CDF", B_scale.figure5c);
    ("figure5d", "loaded RIB files CDF", B_scale.figure5d);
    ("figure6", "RCL running example", B_rcl.figure6_7);
    ("figure8", "RCL spec sizes and verification time", B_rcl.figure8);
    ("figure9", "root-cause analysis case", B_accuracy.figure9);
    ("table4", "issue taxonomy fault injection", B_accuracy.table4);
    ("table5", "VSB differential testing", B_accuracy.table5);
    ("table6", "change-risk corpus", B_changes.table6);
  ]

(* "fig5a" is shorthand for "figure5a" *)
let canonical arg =
  let n = String.length arg in
  if n > 3 && String.sub arg 0 3 = "fig"
     && not (String.starts_with ~prefix:"figure" arg)
  then "figure" ^ String.sub arg 3 (n - 3)
  else arg

let flags = [ "--quick"; "--micro"; "--ablate" ]

let () =
  let raw = List.tl (Array.to_list Sys.argv) in
  let args = List.map canonical raw in
  let names = List.map (fun (name, _, _) -> name) sections in
  let known a = List.mem (canonical a) (flags @ names) in
  (match List.filter (fun a -> not (known a)) raw with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown argument(s): %s\nflags: %s\nsections: %s\n"
        (String.concat " " unknown) (String.concat " " flags)
        (String.concat " " names);
      exit 2);
  let has flag = List.mem flag args in
  if has "--quick" then B_common.quick := true;
  let t0 = Unix.gettimeofday () in
  if has "--micro" then B_micro.run ()
  else if has "--ablate" then B_ablate.all ()
  else begin
    let wanted = List.filter (fun a -> List.mem a names) args in
    List.iter
      (fun (name, desc, run) ->
        if wanted = [] || List.mem name wanted then begin
          Printf.printf "\n################ %s — %s\n%!" name desc;
          run ()
        end)
      sections
  end;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
