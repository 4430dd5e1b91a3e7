(** RIBs: collections of routes.

    {!t} is the RIB of a single device+VRF (routes grouped per prefix);
    {!Global} is the paper's {e global RIB abstraction} (§4.1): every route
    of every device gathered in one table, which is what RCL intents are
    evaluated against and what the route-simulation subtasks emit. *)

type t = Route.t list Prefix.Map.t

let empty : t = Prefix.Map.empty

let add (rib : t) (r : Route.t) : t =
  Prefix.Map.update r.Route.prefix
    (function None -> Some [ r ] | Some rs -> Some (r :: rs))
    rib

let set (rib : t) prefix routes : t =
  if routes = [] then Prefix.Map.remove prefix rib
  else Prefix.Map.add prefix routes rib

let find (rib : t) prefix =
  Option.value (Prefix.Map.find_opt prefix rib) ~default:[]

let remove (rib : t) prefix : t = Prefix.Map.remove prefix rib

let fold f (rib : t) init =
  Prefix.Map.fold (fun p rs acc -> f p rs acc) rib init

let routes (rib : t) =
  Prefix.Map.fold (fun _ rs acc -> List.rev_append rs acc) rib []

let cardinal (rib : t) =
  Prefix.Map.fold (fun _ rs n -> n + List.length rs) rib 0

let prefixes (rib : t) = Prefix.Map.bindings rib |> List.map fst

(** Best routes only (route_type = Best or Ecmp, which are the ones
    installed in the FIB). *)
let installed (rib : t) prefix =
  find rib prefix
  |> List.filter (fun r ->
         match r.Route.route_type with
         | Route.Best | Route.Ecmp -> true
         | Route.Backup -> false)

type rib = t

(* ------------------------------------------------------------------ *)
(* Packed sort keys for compact RIB rows                               *)
(* ------------------------------------------------------------------ *)

(** Packed per-route sort keys.

    A {!ctx} maps the (device, vrf, prefix) universe of a phase to dense
    small ids {e assigned in sorted order}, so the mixed-radix packed key
    orders exactly like the leading fields of {!Route.compare}.  Workers
    sort their RIB chunks by [(key, Route.compare)] — almost every
    comparison resolves on one int — and the coordinator's k-way merge
    inherits the same order, so the merged output is byte-identical to
    [List.sort_uniq Route.compare] over the concatenation.

    The ctx is built by the coordinator before worker domains spawn and
    is read-only afterwards.  Routes whose device, vrf or prefix is
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

  let of_route (ctx : ctx) (r : Route.t) : int option =
    match Hashtbl.find_opt ctx.dev_ids r.Route.device with
    | None -> None
    | Some d -> (
        match Hashtbl.find_opt ctx.vrf_ids r.Route.vrf with
        | None -> None
        | Some v -> (
            match Prefix.Map.find_opt r.Route.prefix ctx.pfx_ids with
            | None -> None
            | Some p -> Some ((((d * ctx.vrf_radix) + v) * ctx.pfx_radix) + p)))

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

(** A worker-filled compact RIB: routes in two parallel flat arrays
    (packed int sort key, route), sorted by [(key, Route.compare)] and
    deduplicated.  Replaces per-subtask [Route.t list] accumulation —
    the coordinator merges arenas with a pairwise sorted merge instead
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

  (** Fill an arena from a worker's RIB chunk: key, sort, dedup.  Runs
      inside the worker domain, so the sort happens in parallel. *)
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

  let empty : t = []
  let of_routes (rs : Route.t list) : t = rs
  let to_routes (t : t) : Route.t list = t
  let cardinal = List.length
  let union (a : t) (b : t) : t = a @ b

  let filter p (t : t) : t = List.filter p t

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

  let group_by_device (t : t) =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let key = r.Route.device in
        let existing = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
        Hashtbl.replace tbl key (r :: existing))
      t;
    Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (** Rebuild the per-device/VRF RIB table from a global RIB. *)
  let to_ribs (t : t) =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let key = (r.Route.device, r.Route.vrf) in
        let rib : rib =
          Option.value (Hashtbl.find_opt tbl key) ~default:Prefix.Map.empty
        in
        Hashtbl.replace tbl key (add rib r))
      t;
    tbl
end
