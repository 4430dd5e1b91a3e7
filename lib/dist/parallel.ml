(* Real multicore execution (OCaml 5 domains); the interface documents
   the contract. *)

module Telemetry = Hoyan_telemetry.Telemetry

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* A worker's claim range [lo, hi) packed into one atomic int (lo in the
   high bits, hi in the low 30), so claiming and stealing are single-word
   compare-and-set operations. *)
let range_bits = 30
let range_mask = (1 lsl range_bits) - 1
let pack_range lo hi = (lo lsl range_bits) lor hi
let range_lo v = v lsr range_bits
let range_hi v = v land range_mask

let map ?tm ?(domains = default_domains ()) ?weights (f : 'a -> 'b)
    (xs : 'a list) : 'b list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      assert (n <= range_mask);
      let workers = max 1 (min domains n) in
      let weights =
        match weights with
        | Some w when Array.length w = n -> w
        | _ -> Array.make n 1.
      in
      let ranges =
        Costmodel.chunk_plan ~workers weights
        |> Array.map (fun (lo, hi) -> Atomic.make (pack_range lo hi))
      in
      let results = Array.make n None in
      let failure = Atomic.make None in
      (* claim a chunk from the front of worker [w]'s own range *)
      let rec claim_own w =
        let v = Atomic.get ranges.(w) in
        let lo = range_lo v and hi = range_hi v in
        if lo >= hi then None
        else
          (* an eighth of what's left: small enough to rebalance via
             steals, large enough to amortize the compare-and-set *)
          let c = max 1 ((hi - lo) / 8) in
          if Atomic.compare_and_set ranges.(w) v (pack_range (lo + c) hi)
          then Some (lo, lo + c)
          else claim_own w
      in
      (* steal the back half of the fullest peer range into our own;
         [`Retry] on a lost race, [`Empty] when every range is drained *)
      let steal w =
        let best = ref (-1) and best_len = ref 0 in
        for o = 0 to workers - 1 do
          if o <> w then begin
            let v = Atomic.get ranges.(o) in
            let len = range_hi v - range_lo v in
            if len > !best_len then begin
              best := o;
              best_len := len
            end
          end
        done;
        if !best < 0 then `Empty
        else
          let o = !best in
          let v = Atomic.get ranges.(o) in
          let lo = range_lo v and hi = range_hi v in
          if lo >= hi then `Retry
          else
            let mid = lo + ((hi - lo) / 2) in
            if Atomic.compare_and_set ranges.(o) v (pack_range lo mid)
            then begin
              (* our own range is drained and only its owner refills it,
                 so a plain store is race-free *)
              Atomic.set ranges.(w) (pack_range mid hi);
              `Stolen
            end
            else `Retry
      in
      let worker wid () =
        let sp =
          if Telemetry.enabled tm then
            Telemetry.span tm
              ~args:[ ("worker", string_of_int wid) ]
              "parallel.domain"
          else Hoyan_telemetry.Trace.null_span
        in
        let claimed = ref 0 and steals = ref 0 in
        let run_chunk lo hi =
          for i = lo to hi - 1 do
            (* stop computing once any worker has failed *)
            if Atomic.get failure = None then begin
              incr claimed;
              match f arr.(i) with
              | v -> results.(i) <- Some v
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  ignore (Atomic.compare_and_set failure None (Some (e, bt)))
            end
          done
        in
        let rec loop () =
          if Atomic.get failure = None then
            match claim_own wid with
            | Some (lo, hi) ->
                run_chunk lo hi;
                loop ()
            | None -> (
                match steal wid with
                | `Stolen ->
                    incr steals;
                    loop ()
                | `Retry ->
                    Domain.cpu_relax ();
                    loop ()
                | `Empty -> ())
        in
        loop ();
        if Telemetry.enabled tm then begin
          Telemetry.finish tm
            ~args:[ ("items", string_of_int !claimed) ]
            sp;
          Telemetry.count tm "hoyan_parallel_items_total" !claimed;
          if !steals > 0 then
            Telemetry.count tm "hoyan_parallel_steals_total" !steals
        end
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
