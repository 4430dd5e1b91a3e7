(* Real multicore execution (OCaml 5 domains); the interface documents
   the contract. *)

module Telemetry = Hoyan_telemetry.Telemetry

let default_domains () = Domain.recommended_domain_count ()

(* set on a domain while it runs a map's worker loop *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let map ?tm ?(domains = default_domains ()) (f : 'a -> 'b) (xs : 'a list) :
    'b list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when Domain.DLS.get in_worker ->
      (* nested: this domain is already one of an outer map's workers *)
      List.map f xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let workers = max 1 (min domains n) in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let worker wid () =
        Domain.DLS.set in_worker true;
        let sp =
          if Telemetry.enabled tm then
            Telemetry.span tm
              ~args:[ ("worker", string_of_int wid) ]
              "parallel.domain"
          else Hoyan_telemetry.Trace.null_span
        in
        let claimed = ref 0 in
        let rec loop () =
          (* stop claiming once any worker has failed *)
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              incr claimed;
              (match f arr.(i) with
              | v -> results.(i) <- Some v
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  ignore (Atomic.compare_and_set failure None (Some (e, bt))));
              loop ()
            end
          end
        in
        loop ();
        if Telemetry.enabled tm then begin
          Telemetry.finish tm
            ~args:[ ("items", string_of_int !claimed) ]
            sp;
          Telemetry.count tm "hoyan_parallel_items_total" !claimed
        end;
        Domain.DLS.set in_worker false
      in
      let spawned =
        List.init (workers - 1) (fun i ->
            Domain.spawn (fun () -> worker (i + 1) ()))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.to_list results
          |> List.map (function Some v -> v | None -> assert false)
