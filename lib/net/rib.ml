(** The global RIB: the canonical row set (see the interface), its
    packed sort keys and compact arenas. *)

type t = Route.t list

let empty = []

let of_routes rs = List.sort_uniq Route.compare rs

let copy (t : t) : t =
  List.map (fun (r : Route.t) -> { r with Route.tag = r.Route.tag }) t

let filter = List.filter
let equal = List.equal Route.equal

let group_by (key : Route.t -> 'k) (t : t) : ('k * t) list =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt tbl k with
      | Some rows -> rows := r :: !rows
      | None ->
          Hashtbl.add tbl k (ref [ r ]);
          order := k :: !order)
    t;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

(* Merge two canonical lists, dropping cross-list duplicates. *)
let merge2 (a : t) (b : t) : t =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: xs, y :: ys ->
        let c = Route.compare x y in
        if c < 0 then go (x :: acc) xs b
        else if c > 0 then go (y :: acc) a ys
        else go (x :: acc) xs ys
  in
  go [] a b

let rec union = function
  | [] -> []
  | [ t ] -> t
  | ts ->
      let rec pair = function
        | a :: b :: rest -> merge2 a b :: pair rest
        | r -> r
      in
      union (pair ts)

let diff (a : t) (b : t) : t =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | x :: xs, y :: ys ->
        let c = Route.compare x y in
        if c < 0 then go (x :: acc) xs b
        else if c > 0 then go acc a ys
        else go acc xs ys
  in
  go [] a b

(* ------------------------------------------------------------------ *)
(* Packed sort keys for compact RIB rows                               *)
(* ------------------------------------------------------------------ *)

(* The ids are assigned in sorted order, so a packed key orders like
   the (device, vrf, prefix) fields that lead [Route.compare]. *)
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

  let of_routes (rs : Route.t list) : ctx =
    make
      ~devices:(List.map (fun (r : Route.t) -> r.Route.device) rs)
      ~vrfs:(List.map (fun (r : Route.t) -> r.Route.vrf) rs)
      ~prefixes:(List.map (fun (r : Route.t) -> r.Route.prefix) rs)

  let of_slot (ctx : ctx) ~device ~vrf ~prefix : int option =
    match
      ( Hashtbl.find_opt ctx.dev_ids device,
        Hashtbl.find_opt ctx.vrf_ids vrf,
        Prefix.Map.find_opt prefix ctx.pfx_ids )
    with
    | Some d, Some v, Some p ->
        Some ((((d * ctx.vrf_radix) + v) * ctx.pfx_radix) + p)
    | _ -> None

  let of_route (ctx : ctx) (r : Route.t) : int option =
    of_slot ctx ~device:r.Route.device ~vrf:r.Route.vrf ~prefix:r.Route.prefix

  let prefix_count (ctx : ctx) = ctx.pfx_radix

  let prefix_id (ctx : ctx) (p : Prefix.t) : int option =
    Prefix.Map.find_opt p ctx.pfx_ids

  (* the prefix id packed into a key: the lowest mixed-radix digit *)
  let prefix_of_key (ctx : ctx) (k : int) : int = k mod ctx.pfx_radix
end

(* ------------------------------------------------------------------ *)
(* Compact RIB arenas                                                  *)
(* ------------------------------------------------------------------ *)

module Arena = struct
  type t = {
    keys : int array;
    rows : Route.t array;
    overflow : Route.t list;
  }

  let empty = { keys = [||]; rows = [||]; overflow = [] }

  let cardinal t = Array.length t.keys + List.length t.overflow

  let of_rib (ctx : Key.ctx) (rib : Route.t list) : t =
    let keyed, overflow =
      List.partition_map
        (fun r ->
          match Key.of_route ctx r with
          | Some k -> Either.Left (k, r)
          | None -> Either.Right r)
        rib
    in
    let keyed = Array.of_list keyed in
    { keys = Array.map fst keyed; rows = Array.map snd keyed; overflow }

  (** Sorted two-way merge with dedup; int-key compares resolve almost
      every step without touching the route records. *)
  let union (a : t) (b : t) : t =
    let overflow = merge2 a.overflow b.overflow in
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
      let rest (src : t) i n =
        Array.blit src.keys i keys !k (n - i);
        Array.blit src.rows i rows !k (n - i);
        k := !k + n - i
      in
      rest a !i na;
      rest b !j nb;
      if !k = na + nb then { keys; rows; overflow }
      else
        { keys = Array.sub keys 0 !k; rows = Array.sub rows 0 !k; overflow }
    end

  (* Both sides stay sorted, so the result is an arena over the same
     ctx. *)
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
    merge2 (Array.to_list m.rows) m.overflow
end
