(** RIBs: collections of routes.

    {!Global} is the paper's {e global RIB abstraction} (§4.1): every
    route of every device gathered in one table, which is what RCL
    intents are evaluated against and what the route-simulation subtasks
    emit.  {!Key} and {!Arena} are its compact sorted form. *)

(* ------------------------------------------------------------------ *)
(* Packed sort keys for compact RIB rows                               *)
(* ------------------------------------------------------------------ *)

(** Packed per-route sort keys.

    A {!ctx} maps the (device, vrf, prefix) universe of a phase to dense
    small ids {e assigned in sorted order}, so the mixed-radix packed key
    orders exactly like the leading fields of {!Route.compare}.  RIB
    chunks are sorted by [(key, Route.compare)] — almost every
    comparison resolves on one int — and the k-way merge inherits the
    same order, so the merged output is byte-identical to
    [List.sort_uniq Route.compare] over the concatenation.

    The ctx is built once per phase (the framework's master-collect,
    the incremental engine's capture) and is read-only afterwards.  Routes whose device, vrf or prefix is
    outside the universe simply get no key ({!Key.of_route} returns
    [None]); {!Arena} keeps them on a structurally-sorted overflow side
    channel, so an incomplete universe degrades performance, never
    correctness. *)
module Key = struct
  type ctx = {
    dev_ids : (string, int) Hashtbl.t;
    vrf_ids : (string, int) Hashtbl.t;
    pfx_ids : int Prefix.Map.t;
    vrf_radix : int;
    pfx_radix : int;
  }

  let make ~devices ~vrfs ~prefixes : ctx =
    let devices = List.sort_uniq String.compare devices in
    let vrfs = List.sort_uniq String.compare vrfs in
    let prefixes = List.sort_uniq Prefix.compare prefixes in
    let n_dev = List.length devices
    and n_vrf = List.length vrfs
    and n_pfx = List.length prefixes in
    if
      float_of_int n_dev *. float_of_int n_vrf *. float_of_int n_pfx
      >= float_of_int max_int
    then invalid_arg "Rib.Key.make: universe too large to pack";
    let dev_ids = Hashtbl.create (max 16 n_dev) in
    List.iteri (fun i d -> Hashtbl.replace dev_ids d i) devices;
    let vrf_ids = Hashtbl.create (max 16 n_vrf) in
    List.iteri (fun i v -> Hashtbl.replace vrf_ids v i) vrfs;
    let pfx_ids, _ =
      List.fold_left
        (fun (m, i) p -> (Prefix.Map.add p i m, i + 1))
        (Prefix.Map.empty, 0) prefixes
    in
    { dev_ids; vrf_ids; pfx_ids; vrf_radix = max 1 n_vrf; pfx_radix = max 1 n_pfx }

  (** Convenience ctx whose universe is exactly the given routes. *)
  let of_routes (rs : Route.t list) : ctx =
    make
      ~devices:(List.map (fun (r : Route.t) -> r.Route.device) rs)
      ~vrfs:(List.map (fun (r : Route.t) -> r.Route.vrf) rs)
      ~prefixes:(List.map (fun (r : Route.t) -> r.Route.prefix) rs)

  (** The packed key of a (device, vrf, prefix) slot; [None] when any
      part is outside the universe. *)
  let of_slot (ctx : ctx) ~device ~vrf ~prefix : int option =
    match Hashtbl.find_opt ctx.dev_ids device with
    | None -> None
    | Some d -> (
        match Hashtbl.find_opt ctx.vrf_ids vrf with
        | None -> None
        | Some v -> (
            match Prefix.Map.find_opt prefix ctx.pfx_ids with
            | None -> None
            | Some p -> Some ((((d * ctx.vrf_radix) + v) * ctx.pfx_radix) + p)))

  let of_route (ctx : ctx) (r : Route.t) : int option =
    of_slot ctx ~device:r.Route.device ~vrf:r.Route.vrf ~prefix:r.Route.prefix

  (** The dense id of a universe prefix, in [0, pfx_radix); [None] for a
      prefix outside the universe (it owns no keyed row). *)
  let prefix_id (ctx : ctx) (p : Prefix.t) : int option =
    Prefix.Map.find_opt p ctx.pfx_ids

  (** The prefix id packed into a key: the lowest mixed-radix digit. *)
  let prefix_of_key (ctx : ctx) (k : int) : int = k mod ctx.pfx_radix
end

(* ------------------------------------------------------------------ *)
(* Compact RIB arenas                                                  *)
(* ------------------------------------------------------------------ *)

(** A compact RIB: routes in two parallel flat arrays
    (packed int sort key, route), sorted by [(key, Route.compare)] and
    deduplicated.  Replaces per-subtask [Route.t list] accumulation —
    the master merges arenas with a pairwise sorted merge instead
    of [List.concat |> List.sort_uniq Route.compare], and the inner
    comparisons are int compares on the key arrays. *)
module Arena = struct
  type t = {
    keys : int array; (* sorted ascending, parallel to [rows] *)
    rows : Route.t array;
    overflow : Route.t list; (* un-keyable routes, Route.compare-sorted *)
  }

  let empty = { keys = [||]; rows = [||]; overflow = [] }

  let cardinal t = Array.length t.keys + List.length t.overflow

  let row_compare (ka, (ra : Route.t)) (kb, rb) =
    if ka <> kb then compare ka kb else Route.compare ra rb

  (** Fill an arena from a RIB chunk: key, sort, dedup. *)
  let of_routes (ctx : Key.ctx) (rs : Route.t list) : t =
    let keyed = ref [] and over = ref [] and nk = ref 0 in
    List.iter
      (fun r ->
        match Key.of_route ctx r with
        | Some k ->
            keyed := (k, r) :: !keyed;
            incr nk
        | None -> over := r :: !over)
      rs;
    let overflow = List.sort_uniq Route.compare !over in
    if !nk = 0 then { empty with overflow }
    else begin
      let tmp = Array.of_list !keyed in
      Array.sort row_compare tmp;
      let n = Array.length tmp in
      let uniq = ref 1 in
      for i = 1 to n - 1 do
        if row_compare tmp.(i - 1) tmp.(i) <> 0 then incr uniq
      done;
      let keys = Array.make !uniq 0 in
      let rows = Array.make !uniq (snd tmp.(0)) in
      keys.(0) <- fst tmp.(0);
      let k = ref 0 in
      for i = 1 to n - 1 do
        if row_compare tmp.(i - 1) tmp.(i) <> 0 then begin
          incr k;
          keys.(!k) <- fst tmp.(i);
          rows.(!k) <- snd tmp.(i)
        end
      done;
      { keys; rows; overflow }
    end

  (* Merge two Route.compare-sorted deduplicated lists, dropping
     cross-list duplicates. *)
  let rec merge_lists (a : Route.t list) (b : Route.t list) =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        let c = Route.compare x y in
        if c < 0 then x :: merge_lists xs b
        else if c > 0 then y :: merge_lists a ys
        else x :: merge_lists xs ys

  (** Sorted two-way merge with dedup; int-key compares resolve almost
      every step without touching the route records. *)
  let union (a : t) (b : t) : t =
    let overflow = merge_lists a.overflow b.overflow in
    let na = Array.length a.keys and nb = Array.length b.keys in
    if na = 0 then { b with overflow }
    else if nb = 0 then { a with overflow }
    else begin
      let keys = Array.make (na + nb) 0 in
      let rows = Array.make (na + nb) a.rows.(0) in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < na && !j < nb do
        let c = compare a.keys.(!i) b.keys.(!j) in
        let c =
          if c <> 0 then c else Route.compare a.rows.(!i) b.rows.(!j)
        in
        if c <= 0 then begin
          keys.(!k) <- a.keys.(!i);
          rows.(!k) <- a.rows.(!i);
          incr i;
          if c = 0 then incr j
        end
        else begin
          keys.(!k) <- b.keys.(!j);
          rows.(!k) <- b.rows.(!j);
          incr j
        end;
        incr k
      done;
      while !i < na do
        keys.(!k) <- a.keys.(!i);
        rows.(!k) <- a.rows.(!i);
        incr i;
        incr k
      done;
      while !j < nb do
        keys.(!k) <- b.keys.(!j);
        rows.(!k) <- b.rows.(!j);
        incr j;
        incr k
      done;
      if !k = na + nb then { keys; rows; overflow }
      else
        { keys = Array.sub keys 0 !k; rows = Array.sub rows 0 !k; overflow }
    end

  (** Drop the rows on dirty prefixes — the incremental engine's "cut
      out the dirty region" step.  [mask] has one byte per prefix id of
      [ctx] (the ctx [t] was keyed with), non-zero for a dirty prefix;
      keyed rows are tested by their key's prefix digit alone, so the
      scan allocates nothing and never touches a clean row's record.
      Overflow rows carry no key and are tested with [dirty].  [on_drop]
      receives the device of every dropped row.  Both sides stay sorted,
      so the result is a valid arena over the same ctx. *)
  let drop_prefixes (ctx : Key.ctx) ~(mask : Bytes.t)
      ~(dirty : Prefix.t -> bool) ~(on_drop : string -> unit) (t : t) : t =
    let n = Array.length t.keys in
    (* indices of the dropped keyed rows, descending *)
    let dropped = ref [] and n_dropped = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get mask (Key.prefix_of_key ctx t.keys.(i)) <> '\000'
      then begin
        on_drop t.rows.(i).Route.device;
        dropped := i :: !dropped;
        incr n_dropped
      end
    done;
    let overflow =
      List.filter
        (fun (r : Route.t) ->
          let d = dirty r.Route.prefix in
          if d then on_drop r.Route.device;
          not d)
        t.overflow
    in
    let kept = n - !n_dropped in
    if !n_dropped = 0 then { t with overflow }
    else begin
      let keys = Array.make kept 0 in
      let rows = Array.make kept t.rows.(0) in
      (* copy the clean runs between dropped indices, last run first *)
      let hi = ref n and dst = ref kept in
      let copy_run lo =
        let len = !hi - lo in
        dst := !dst - len;
        Array.blit t.keys lo keys !dst len;
        Array.blit t.rows lo rows !dst len
      in
      List.iter
        (fun i ->
          copy_run (i + 1);
          hi := i)
        !dropped;
      copy_run 0;
      { keys; rows; overflow }
    end

  (** The rows of one (device, vrf, prefix) slot, [Route.compare]-sorted:
      a binary search for the slot's key run when the slot is keyable in
      [ctx] (the ctx [t] was keyed with), else a filter of the overflow
      list, where every row of an unkeyable slot lives. *)
  let slot_rows (ctx : Key.ctx) (t : t) ~device ~vrf ~prefix : Route.t list =
    match Key.of_slot ctx ~device ~vrf ~prefix with
    | None ->
        List.filter
          (fun (r : Route.t) ->
            String.equal r.Route.device device
            && String.equal r.Route.vrf vrf
            && Prefix.equal r.Route.prefix prefix)
          t.overflow
    | Some k ->
        let n = Array.length t.keys in
        (* first index whose key is >= k *)
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if t.keys.(mid) < k then lo := mid + 1 else hi := mid
        done;
        let rec collect i =
          if i < n && t.keys.(i) = k then t.rows.(i) :: collect (i + 1) else []
        in
        collect !lo

  (** Pairwise-round merge of many arenas into one global RIB, in
      exactly the order [List.sort_uniq Route.compare] would produce
      over the concatenation of the inputs. *)
  let merge (ts : t list) : Route.t list =
    let rec pair = function
      | a :: b :: rest -> union a b :: pair rest
      | r -> r
    in
    let rec rounds = function
      | [] -> empty
      | [ t ] -> t
      | ts -> rounds (pair ts)
    in
    let m = rounds ts in
    merge_lists (Array.to_list m.rows) m.overflow
end

module Global = struct
  type t = Route.t list

  (** Multiset equality of two global RIBs (order independent), as required
      by the RCL intent [PRE = POST]. *)
  let equal (a : t) (b : t) =
    let sa = List.sort Route.compare a and sb = List.sort Route.compare b in
    List.equal Route.equal sa sb

  (** Routes that are in [a] but not in [b] (multiset difference); used by
      the counter-example generator and the accuracy validator. *)
  let diff (a : t) (b : t) : t =
    let sb = ref (List.sort Route.compare b) in
    List.sort Route.compare a
    |> List.filter (fun r ->
           let rec drop () =
             match !sb with
             | [] -> true
             | x :: rest ->
                 let c = Route.compare x r in
                 if c < 0 then begin
                   sb := rest;
                   drop ()
                 end
                 else if c = 0 then begin
                   sb := rest;
                   false
                 end
                 else true
           in
           drop ())

  let devices (t : t) =
    List.map (fun r -> r.Route.device) t |> List.sort_uniq String.compare
end
