(** The global RIB: the canonical row set stored as one sorted row
    array per device (see the interface). *)

(* One device's rows: canonical, never empty, every row on [dev]. *)
type chunk = {
  dev : string;
  rows : Route.t array;
  vrfs : (string * int) array; (* each VRF with the index of its first row *)
}

(* The chunks in device-name order; [len] is the total row count. *)
type t = { chunks : chunk array; len : int }

let empty = { chunks = [||]; len = 0 }

(* The VRF runs are found by binary search, reading O(V log n) rows
   rather than every row: a patched chunk's index costs no scan. *)
let chunk (rows : Route.t array) : chunk =
  let n = Array.length rows in
  let rec runs start acc =
    if start = n then List.rev acc
    else begin
      let v = rows.(start).Route.vrf in
      let lo = ref (start + 1) and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if String.compare rows.(mid).Route.vrf v <= 0 then lo := mid + 1
        else hi := mid
      done;
      runs !lo ((v, start) :: acc)
    end
  in
  { dev = rows.(0).Route.device; rows; vrfs = Array.of_list (runs 0 []) }

let of_chunk_list (cs : chunk list) : t =
  {
    chunks = Array.of_list cs;
    len = List.fold_left (fun n c -> n + Array.length c.rows) 0 cs;
  }

let single c = { chunks = [| c |]; len = Array.length c.rows }

(* Split a canonical row array into its device runs. *)
let of_sorted (a : Route.t array) : t =
  let n = Array.length a in
  let chunks = ref [] and lo = ref 0 in
  for i = 1 to n do
    if i = n || not (String.equal a.(i).Route.device a.(!lo).Route.device)
    then begin
      let rows = if !lo = 0 && i = n then a else Array.sub a !lo (i - !lo) in
      chunks := chunk rows :: !chunks;
      lo := i
    end
  done;
  { chunks = Array.of_list (List.rev !chunks); len = n }

let of_routes (rs : Route.t list) : t =
  let a = Array.of_list rs in
  Array.stable_sort Route.compare a;
  let n = Array.length a in
  if n = 0 then empty
  else begin
    (* deduplicate in place *)
    let k = ref 1 in
    for i = 1 to n - 1 do
      if Route.compare a.(i) a.(!k - 1) <> 0 then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    of_sorted (if !k = n then a else Array.sub a 0 !k)
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let length t = t.len
let is_empty t = t.len = 0
let iter f t = Array.iter (fun c -> Array.iter f c.rows) t.chunks

let fold f t acc =
  Array.fold_left
    (fun acc c -> Array.fold_left (fun acc r -> f r acc) acc c.rows)
    acc t.chunks

let to_list t =
  let acc = ref [] in
  for c = Array.length t.chunks - 1 downto 0 do
    let rows = t.chunks.(c).rows in
    for i = Array.length rows - 1 downto 0 do
      acc := rows.(i) :: !acc
    done
  done;
  !acc

let to_seq t =
  Seq.concat_map (fun c -> Array.to_seq c.rows) (Array.to_seq t.chunks)

let find_chunk t (d : string) : chunk option =
  let n = Array.length t.chunks in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare t.chunks.(mid).dev d < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo < n && String.equal t.chunks.(!lo).dev d then Some t.chunks.(!lo)
  else None

let device t d =
  match find_chunk t d with Some c -> single c | None -> empty

let by_device t =
  Array.fold_right (fun c acc -> (c.dev, single c) :: acc) t.chunks []

let shares_device a b d =
  match (find_chunk a d, find_chunk b d) with
  | Some x, Some y -> x == y
  | _ -> false

(* The index range [lo, hi) of the rows on prefix [p] in the chunk's
   [vi]-th VRF: a binary search of the VRF's prefix-sorted run. *)
let slot_range (c : chunk) (vi : int) (p : Prefix.t) : int * int =
  let first = snd c.vrfs.(vi) in
  let last =
    if vi + 1 < Array.length c.vrfs then snd c.vrfs.(vi + 1)
    else Array.length c.rows
  in
  let lo = ref first and hi = ref last in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Prefix.compare c.rows.(mid).Route.prefix p < 0 then lo := mid + 1
    else hi := mid
  done;
  let stop = ref !lo in
  while !stop < last && Prefix.equal c.rows.(!stop).Route.prefix p do
    incr stop
  done;
  (!lo, !stop)

let slot t ~device ~vrf ~prefix : Route.t list =
  match find_chunk t device with
  | None -> []
  | Some c -> (
      match
        Array.find_index (fun (v, _) -> String.equal v vrf) c.vrfs
      with
      | None -> []
      | Some vi ->
          let lo, hi = slot_range c vi prefix in
          List.init (hi - lo) (fun i -> c.rows.(lo + i)))

let fold_prefix f t p acc =
  Array.fold_left
    (fun acc c ->
      let acc = ref acc in
      for vi = 0 to Array.length c.vrfs - 1 do
        let lo, hi = slot_range c vi p in
        for i = lo to hi - 1 do
          acc := f c.rows.(i) !acc
        done
      done;
      !acc)
    acc t.chunks

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let copy t =
  {
    t with
    chunks =
      Array.map
        (fun c ->
          {
            c with
            rows =
              Array.map
                (fun (r : Route.t) -> { r with Route.tag = r.Route.tag })
                c.rows;
          })
        t.chunks;
  }

let compare_key (v, p) (w, q) =
  let c = String.compare v w in
  if c <> 0 then c else Prefix.compare p q

(* [None] when no row passes; the chunk itself when every row does. *)
let filter_chunk (p : Route.t -> bool) (c : chunk) : chunk option =
  let n = Array.length c.rows in
  let mask = Bytes.make n '\000' and kept = ref 0 in
  Array.iteri
    (fun i r ->
      if p r then begin
        Bytes.unsafe_set mask i '\001';
        incr kept
      end)
    c.rows;
  if !kept = n then Some c
  else if !kept = 0 then None
  else begin
    let rows = Array.make !kept c.rows.(0) and k = ref 0 in
    Array.iteri
      (fun i r ->
        if Bytes.unsafe_get mask i <> '\000' then begin
          rows.(!k) <- r;
          incr k
        end)
      c.rows;
    Some (chunk rows)
  end

let filter p t =
  of_chunk_list (List.filter_map (filter_chunk p) (Array.to_list t.chunks))

let group_by (key : Route.t -> 'k) (t : t) : ('k * t) list =
  let tbl = Hashtbl.create 64 and order = ref [] in
  iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt tbl k with
      | Some rows -> rows := r :: !rows
      | None ->
          Hashtbl.add tbl k (ref [ r ]);
          order := k :: !order)
    t;
  List.rev_map
    (fun k -> (k, of_sorted (Array.of_list (List.rev !(Hashtbl.find tbl k)))))
    !order

(* Merge two canonical row arrays, dropping cross-array duplicates. *)
let merge_rows (a : Route.t array) (b : Route.t array) : Route.t array =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) a.(0) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let c = Route.compare a.(!i) b.(!j) in
    if c <= 0 then begin
      out.(!k) <- a.(!i);
      incr i;
      if c = 0 then incr j
    end
    else begin
      out.(!k) <- b.(!j);
      incr j
    end;
    incr k
  done;
  Array.blit a !i out !k (na - !i);
  k := !k + na - !i;
  Array.blit b !j out !k (nb - !j);
  k := !k + nb - !j;
  if !k = na + nb then out else Array.sub out 0 !k

(* Walk two chunk arrays in device order: [both] on a device both hold,
   [left]/[right] on a device one alone holds; the [Some] results, in
   order. *)
let walk ~both ~left ~right (a : t) (b : t) : chunk list =
  let na = Array.length a.chunks and nb = Array.length b.chunks in
  let rec go i j acc =
    if i = na && j = nb then List.rev acc
    else if j = nb then go (i + 1) j (push (left a.chunks.(i)) acc)
    else if i = na then go i (j + 1) (push (right b.chunks.(j)) acc)
    else
      let x = a.chunks.(i) and y = b.chunks.(j) in
      let c = String.compare x.dev y.dev in
      if c < 0 then go (i + 1) j (push (left x) acc)
      else if c > 0 then go i (j + 1) (push (right y) acc)
      else go (i + 1) (j + 1) (push (both x y) acc)
  and push o acc = match o with Some c -> c :: acc | None -> acc in
  go 0 0 []

let union2 a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else
    of_chunk_list
      (walk a b ~left:Option.some ~right:Option.some ~both:(fun x y ->
           Some (if x == y then x else chunk (merge_rows x.rows y.rows))))

let rec union = function
  | [] -> empty
  | [ t ] -> t
  | ts ->
      let rec pair = function
        | a :: b :: rest -> union2 a b :: pair rest
        | r -> r
      in
      union (pair ts)

let chunk_equal x y =
  x == y
  || String.equal x.dev y.dev
     && Array.length x.rows = Array.length y.rows
     && Array.for_all2 Route.equal x.rows y.rows

let equal a b =
  a == b
  || a.len = b.len
     && Array.length a.chunks = Array.length b.chunks
     && Array.for_all2 chunk_equal a.chunks b.chunks

(* The rows of [x] not in [y]; [x] itself when none is. *)
let diff_chunk (x : chunk) (y : chunk) : chunk option =
  if x == y then None
  else begin
    let a = x.rows and b = y.rows in
    let na = Array.length a and nb = Array.length b in
    let out = ref [] and n = ref 0 and j = ref 0 in
    Array.iter
      (fun r ->
        while !j < nb && Route.compare b.(!j) r < 0 do
          incr j
        done;
        if not (!j < nb && Route.compare b.(!j) r = 0) then begin
          out := r :: !out;
          incr n
        end)
      a;
    if !n = na then Some x
    else if !n = 0 then None
    else Some (chunk (Array.of_list (List.rev !out)))
  end

let diff a b =
  if a == b then empty
  else
    of_chunk_list
      (walk a b ~left:Option.some ~right:(fun _ -> None) ~both:diff_chunk)

(* (vrf, prefix) against a row's slot *)
let slot_compare (vrf, p) (r : Route.t) =
  let c = String.compare vrf r.Route.vrf in
  if c <> 0 then c else Prefix.compare p r.Route.prefix

let patch_slots (t : t) (d : string)
    (slots : ((string * Prefix.t) * Route.t list) list) : t =
  let rows = match find_chunk t d with Some c -> c.rows | None -> [||] in
  let n = Array.length rows in
  let slots = List.sort (fun (a, _) (b, _) -> compare_key a b) slots in
  (* the first index in [lo, n) whose slot is not below [key] ([strict]:
     not below or equal) *)
  let bound ~strict key lo =
    let lo = ref lo and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = slot_compare key rows.(mid) in
      if c > 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* each listed slot's source range and fresh rows, in order *)
  let pos = ref 0 and last = ref None in
  let cuts =
    List.map
      (fun (((vrf, p) as key), fresh) ->
        if Option.equal (fun a b -> compare_key a b = 0) !last (Some key) then
          invalid_arg ("Rib.patch_slots: slot named twice on " ^ d);
        last := Some key;
        List.iter
          (fun (r : Route.t) ->
            if
              not
                (String.equal r.Route.device d
                && String.equal r.Route.vrf vrf
                && Prefix.equal r.Route.prefix p)
            then invalid_arg ("Rib.patch_slots: a row off its slot on " ^ d))
          fresh;
        let lo = bound ~strict:false key !pos in
        let hi = bound ~strict:true key lo in
        pos := hi;
        (lo, hi, Array.of_list (List.sort_uniq Route.compare fresh)))
      slots
  in
  let size =
    List.fold_left (fun k (lo, hi, f) -> k - (hi - lo) + Array.length f) n cuts
  in
  if size = 0 then empty
  else begin
    (* one allocation: the kept runs blitted between the fresh slots *)
    let first =
      if n > 0 then rows.(0)
      else
        let _, _, f = List.find (fun (_, _, f) -> Array.length f > 0) cuts in
        f.(0)
    in
    let out = Array.make size first and src = ref 0 and dst = ref 0 in
    let put a lo len =
      Array.blit a lo out !dst len;
      dst := !dst + len
    in
    List.iter
      (fun (lo, hi, fresh) ->
        put rows !src (lo - !src);
        put fresh 0 (Array.length fresh);
        src := hi)
      cuts;
    put rows !src (n - !src);
    single (chunk out)
  end

let replace (base : t) (reps : (string * t) list) : t =
  let named = Hashtbl.create 16 in
  let fresh =
    List.filter_map
      (fun (d, r) ->
        if Hashtbl.mem named d then
          invalid_arg ("Rib.replace: device named twice: " ^ d);
        Hashtbl.add named d ();
        if Array.exists (fun c -> not (String.equal c.dev d)) r.chunks then
          invalid_arg ("Rib.replace: a row off device " ^ d);
        if r.len = 0 then None else Some r.chunks.(0))
      reps
  in
  let by_dev x y = String.compare x.dev y.dev in
  let kept =
    List.filter
      (fun c -> not (Hashtbl.mem named c.dev))
      (Array.to_list base.chunks)
  in
  of_chunk_list (List.merge by_dev kept (List.sort by_dev fresh))
