(** IP addresses (IPv4 and IPv6).

    IPv4 addresses are stored as a non-negative OCaml [int] in
    [0, 2^32 - 1]; IPv6 addresses as an unsigned {!Int128.t}.  The WAN in
    the paper is dual stack (the next-generation WAN is IPv6/SRv6-based),
    so both families are first-class throughout the code base. *)

type t = V4 of int | V6 of Int128.t

type family = Ipv4 | Ipv6

let family = function V4 _ -> Ipv4 | V6 _ -> Ipv6

let family_bits = function Ipv4 -> 32 | Ipv6 -> 128

let family_to_string = function Ipv4 -> "ipv4" | Ipv6 -> "ipv6"

let equal a b =
  match (a, b) with
  | V4 x, V4 y -> Int.equal x y
  | V6 x, V6 y -> Int128.equal x y
  | V4 _, V6 _ | V6 _, V4 _ -> false

(* IPv4 sorts before IPv6; within a family, numeric (unsigned) order. *)
let compare a b =
  match (a, b) with
  | V4 x, V4 y -> Int.compare x y
  | V6 x, V6 y -> Int128.compare x y
  | V4 _, V6 _ -> -1
  | V6 _, V4 _ -> 1

let v4_max = (1 lsl 32) - 1

let v4 n =
  if n < 0 || n > v4_max then invalid_arg "Ip.v4: out of range" else V4 n

let v6 n = V6 n

let v4_of_octets a b c d =
  let ok x = x >= 0 && x <= 255 in
  if ok a && ok b && ok c && ok d then
    V4 ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
  else invalid_arg "Ip.v4_of_octets"

(** Bit [i] of the address counting from the most significant bit
    (i.e. [bit a 0] is the top bit); used by the longest-prefix trie. *)
let bit t i =
  match t with
  | V4 n ->
      if i < 0 || i > 31 then invalid_arg "Ip.bit(v4)"
      else (n lsr (31 - i)) land 1 = 1
  | V6 n ->
      if i < 0 || i > 127 then invalid_arg "Ip.bit(v6)"
      else Int128.test_bit n (127 - i)

let zero = function Ipv4 -> V4 0 | Ipv6 -> V6 Int128.zero

let succ = function
  | V4 n -> if n >= v4_max then V4 v4_max else V4 (n + 1)
  | V6 n -> if Int128.equal n Int128.max_value then V6 n else V6 (Int128.succ n)

let pred = function
  | V4 n -> if n <= 0 then V4 0 else V4 (n - 1)
  | V6 n -> if Int128.equal n Int128.zero then V6 n else V6 (Int128.pred n)

(* Saturating addition of a non-negative integer offset. *)
let add t k =
  if k < 0 then invalid_arg "Ip.add: negative offset"
  else
    match t with
    | V4 n -> V4 (min v4_max (n + k))
    | V6 n ->
        let r = Int128.add n (Int128.of_int k) in
        if Int128.compare r n < 0 then V6 Int128.max_value else V6 r

let to_string = function
  | V4 n ->
      Printf.sprintf "%d.%d.%d.%d"
        ((n lsr 24) land 0xff)
        ((n lsr 16) land 0xff)
        ((n lsr 8) land 0xff)
        (n land 0xff)
  | V6 n ->
      (* RFC 5952-style: compress the longest run of zero groups. *)
      let groups =
        Array.init 8 (fun i ->
            let shift = (7 - i) * 16 in
            let g = Int128.shift_right_logical n shift in
            match Int128.to_int_opt (Int128.logand g (Int128.of_int 0xffff)) with
            | Some v -> v
            | None -> 0)
      in
      (* Find the longest run of zeros (length >= 2 to compress). *)
      let best_start = ref (-1) and best_len = ref 0 in
      let cur_start = ref (-1) and cur_len = ref 0 in
      Array.iteri
        (fun i g ->
          if g = 0 then begin
            if !cur_start < 0 then cur_start := i;
            incr cur_len;
            if !cur_len > !best_len then begin
              best_len := !cur_len;
              best_start := !cur_start
            end
          end
          else begin
            cur_start := -1;
            cur_len := 0
          end)
        groups;
      if !best_len < 2 then
        String.concat ":"
          (Array.to_list (Array.map (Printf.sprintf "%x") groups))
      else
        let before =
          Array.to_list (Array.sub groups 0 !best_start)
          |> List.map (Printf.sprintf "%x")
        in
        let after_start = !best_start + !best_len in
        let after =
          Array.to_list (Array.sub groups after_start (8 - after_start))
          |> List.map (Printf.sprintf "%x")
        in
        String.concat ":" before ^ "::" ^ String.concat ":" after

let parse_v4 s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x > 0 -> Some v
        | _ -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (v4_of_octets a b c d)
      | _ -> None)
  | _ -> None

let parse_v6 s =
  let group x =
    if String.length x = 0 || String.length x > 4 then None
    else
      match int_of_string_opt ("0x" ^ x) with
      | Some v when v >= 0 && v <= 0xffff -> Some v
      | _ -> None
  in
  let of_groups gs =
    if List.length gs <> 8 then None
    else
      let rec build acc = function
        | [] -> Some acc
        | g :: rest -> (
            match g with
            | Some v ->
                build
                  (Int128.logor
                     (Int128.shift_left acc 16)
                     (Int128.of_int v))
                  rest
            | None -> None)
      in
      build Int128.zero gs
  in
  let split_groups part =
    if String.length part = 0 then []
    else String.split_on_char ':' part |> List.map group
  in
  match
    (* At most one "::". *)
    let parts =
      let rec find i =
        if i + 1 >= String.length s then None
        else if s.[i] = ':' && s.[i + 1] = ':' then Some i
        else find (i + 1)
      in
      find 0
    in
    match parts with
    | None -> of_groups (split_groups s)
    | Some i ->
        let left = String.sub s 0 i in
        let right = String.sub s (i + 2) (String.length s - i - 2) in
        if String.length right > 0 && String.contains right ':'
           && String.length right >= 2
           && right.[0] = ':'
        then None (* ":::" *)
        else
          let l = split_groups left and r = split_groups right in
          let fill = 8 - List.length l - List.length r in
          if fill < 1 then None
          else of_groups (l @ List.init fill (fun _ -> Some 0) @ r)
  with
  | Some n -> Some (V6 n)
  | None -> None

let of_string s =
  if String.contains s ':' then parse_v6 s else parse_v4 s

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ip.of_string_exn: %S" s)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let hash = function
  | V4 n -> n * 0x9e3779b1
  | V6 n ->
      Int64.to_int (Int128.lo n) lxor (Int64.to_int (Int128.hi n) * 0x85ebca77)
