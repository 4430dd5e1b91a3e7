(** CIDR prefixes over both address families.

    A prefix is stored in normalized form: all host bits of the network
    address are zero.  The ordering heuristic of the distributed simulator
    (§3.2 of the paper) sorts routes by the {e last} address covered by the
    prefix, which {!last_addr} provides. *)

type t = { ip : Ip.t; len : int }

let bits t = Ip.family_bits (Ip.family t.ip)

(* Zero out host bits. *)
let normalize_ip ip len =
  match ip with
  | Ip.V4 n ->
      let m = if len <= 0 then 0 else (Ip.v4_max lsr (32 - len)) lsl (32 - len) in
      Ip.V4 (n land m)
  | Ip.V6 n -> Ip.V6 (Int128.logand n (Int128.mask len))

let make ip len =
  let max_len = Ip.family_bits (Ip.family ip) in
  if len < 0 || len > max_len then invalid_arg "Prefix.make: bad length"
  else { ip = normalize_ip ip len; len }

let make_opt ip len =
  if len < 0 || len > Ip.family_bits (Ip.family ip) then None
  else Some (make ip len)

let ip t = t.ip
let len t = t.len
let family t = Ip.family t.ip

let equal a b = a.len = b.len && Ip.equal a.ip b.ip

(* Order prefixes by first address, then by length (shorter first, i.e. the
   covering prefix sorts before its subnets). *)
let compare a b =
  let c = Ip.compare a.ip b.ip in
  if c <> 0 then c else Int.compare a.len b.len

let first_addr t = t.ip

let last_addr t =
  match t.ip with
  | Ip.V4 n ->
      let host = if t.len >= 32 then 0 else (1 lsl (32 - t.len)) - 1 in
      Ip.V4 (n lor host)
  | Ip.V6 n ->
      Ip.V6 (Int128.logor n (Int128.lognot (Int128.mask t.len)))

(** Number of addresses covered (saturating at [max_int] for huge v6 blocks). *)
let size t =
  match family t with
  | Ip.Ipv4 -> 1 lsl (32 - t.len)
  | Ip.Ipv6 ->
      if 128 - t.len >= 62 then max_int else 1 lsl (128 - t.len)

(** [mem ip t] is true when [ip] is covered by prefix [t]. *)
let mem addr t =
  Ip.family addr = family t && Ip.equal (normalize_ip addr t.len) t.ip

(** [subsumes a b] is true when every address of [b] is in [a]. *)
let subsumes a b =
  family a = family b && a.len <= b.len && mem b.ip a

(** [overlap a b]: do the two prefixes share any address? *)
let overlap a b = subsumes a b || subsumes b a

let to_string t = Printf.sprintf "%s/%d" (Ip.to_string t.ip) t.len

let of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      let addr = String.sub s 0 i in
      let l = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ip.of_string addr, int_of_string_opt l) with
      | Some ip, Some len
        when len >= 0 && len <= Ip.family_bits (Ip.family ip) ->
          Some (make ip len)
      | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* [Ip.hash] is a bare multiply, so every /24 would share its low eight
   bits — the ones a power-of-two hashtable buckets on; mix once more. *)
let hash t = Hashtbl.hash (Ip.hash t.ip lxor (t.len * 0x27d4eb2f))

(** The default route for a family ([0.0.0.0/0] or [::/0]). *)
let default fam = make (Ip.zero fam) 0

(** Split a prefix into its two /(len+1) halves (e.g. for trie tests). *)
let halves t =
  let b = bits t in
  if t.len >= b then None
  else
    let lo = make t.ip (t.len + 1) in
    let hi_ip =
      match t.ip with
      | Ip.V4 n -> Ip.V4 (n lor (1 lsl (b - t.len - 1)))
      | Ip.V6 n -> Ip.V6 (Int128.set_bit n (b - t.len - 1))
    in
    Some (lo, make hi_ip (t.len + 1))

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ord)
module Map = Stdlib.Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
