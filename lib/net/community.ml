(** BGP community values ("ASN:tag" pairs) and community sets. *)

type t = { asn : int; tag : int }

let make asn tag =
  if asn < 0 || asn > 0xffff_ffff || tag < 0 || tag > 0xffff then
    invalid_arg "Community.make"
  else { asn; tag }

let asn t = t.asn
let tag t = t.tag

let equal a b = a.asn = b.asn && a.tag = b.tag

let compare a b =
  let c = Int.compare a.asn b.asn in
  if c <> 0 then c else Int.compare a.tag b.tag

let to_string t = Printf.sprintf "%d:%d" t.asn t.tag

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some asn, Some tag
        when asn >= 0 && asn <= 0xffff_ffff && tag >= 0 && tag <= 0xffff ->
          Some { asn; tag }
      | _ -> None)
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Community.of_string_exn: %S" s)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Well-known communities (RFC 1997). *)
let no_export = { asn = 0xffff; tag = 0xff01 }
let no_advertise = { asn = 0xffff; tag = 0xff02 }

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module CSet = Stdlib.Set.Make (Ord)

(** Community sets attached to routes; kept sorted and deduplicated so that
    structural equality coincides with set equality (important for the
    equivalence-class keys of §3.1). *)
module Set = struct
  type elt = t
  type t = elt list (* sorted, unique *)

  let empty = []
  let is_empty = function [] -> true | _ :: _ -> false
  let of_list l = CSet.elements (CSet.of_list l)
  let to_list (t : t) = t
  let singleton c : t = [ c ]
  let mem c (t : t) = List.exists (equal c) t
  let add c t = of_list (c :: t)
  let union a b = of_list (a @ b)
  let remove c (t : t) : t = List.filter (fun x -> not (equal c x)) t
  let diff a (b : t) : t = List.filter (fun x -> not (mem x b)) a
  let cardinal = List.length

  let equal (a : t) (b : t) =
    try List.for_all2 equal a b with Invalid_argument _ -> false

  let compare (a : t) (b : t) =
    let rec go = function
      | [], [] -> 0
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | x :: xs, y :: ys ->
          let c = compare x y in
          if c <> 0 then c else go (xs, ys)
    in
    go (a, b)

  let to_string t = String.concat "," (List.map to_string t)

  let of_string s =
    if String.trim s = "" then Some empty
    else
      let parts = String.split_on_char ',' s |> List.map String.trim in
      let rec go acc = function
        | [] -> Some (of_list acc)
        | p :: rest -> (
            match of_string p with
            | Some c -> go (c :: acc) rest
            | None -> None)
      in
      go [] parts

  let pp ppf t = Format.pp_print_string ppf (to_string t)
end
