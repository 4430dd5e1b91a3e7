(** Binary longest-prefix-match trie over IP prefixes.

    Used to build FIBs for traffic simulation and to evaluate prefix-list
    matches efficiently.  One trie handles one address family; {!Dual}
    bundles a v4 and a v6 trie behind a family dispatch. *)

type 'a node = {
  value : 'a option;
  zero : 'a node option; (* next bit = 0 *)
  one : 'a node option; (* next bit = 1 *)
}

type 'a t = { family : Ip.family; root : 'a node }

let empty_node = { value = None; zero = None; one = None }

let empty family = { family; root = empty_node }

let is_empty t =
  t.root.value = None && t.root.zero = None && t.root.one = None

(** [add t prefix v] binds [prefix] to [v], replacing any previous binding. *)
let add t prefix v =
  if Prefix.family prefix <> t.family then invalid_arg "Trie.add: family"
  else
    let ip = Prefix.ip prefix and len = Prefix.len prefix in
    let rec go node depth =
      if depth = len then { node with value = Some v }
      else if Ip.bit ip depth then
        let child = Option.value node.one ~default:empty_node in
        { node with one = Some (go child (depth + 1)) }
      else
        let child = Option.value node.zero ~default:empty_node in
        { node with zero = Some (go child (depth + 1)) }
    in
    { t with root = go t.root 0 }

(** [update t prefix f] applies [f] to the current binding (or [None]).
    Spine nodes left with no binding and no children are pruned, so a
    trie whose last binding is removed {!is_empty}. *)
let update t prefix f =
  if Prefix.family prefix <> t.family then invalid_arg "Trie.update: family"
  else
    let ip = Prefix.ip prefix and len = Prefix.len prefix in
    let prune n =
      if n.value = None && n.zero = None && n.one = None then None else Some n
    in
    let rec go node depth =
      if depth = len then prune { node with value = f node.value }
      else if Ip.bit ip depth then
        let child = Option.value node.one ~default:empty_node in
        prune { node with one = go child (depth + 1) }
      else
        let child = Option.value node.zero ~default:empty_node in
        prune { node with zero = go child (depth + 1) }
    in
    { t with root = Option.value (go t.root 0) ~default:empty_node }

let remove t prefix = update t prefix (fun _ -> None)

let find_exact t prefix =
  if Prefix.family prefix <> t.family then None
  else
    let ip = Prefix.ip prefix and len = Prefix.len prefix in
    let rec go node depth =
      if depth = len then node.value
      else
        let next = if Ip.bit ip depth then node.one else node.zero in
        match next with None -> None | Some child -> go child (depth + 1)
    in
    go t.root 0

(** Longest-prefix match of an address.  Returns the matched prefix and
    its binding. *)
let longest_match t addr =
  if Ip.family addr <> t.family then None
  else
    let max_depth = Ip.family_bits t.family in
    let rec go node depth best =
      let best =
        match node.value with
        | Some v -> Some (depth, v)
        | None -> best
      in
      if depth >= max_depth then best
      else
        let next = if Ip.bit addr depth then node.one else node.zero in
        match next with
        | None -> best
        | Some child -> go child (depth + 1) best
    in
    match go t.root 0 None with
    | None -> None
    | Some (depth, v) ->
        (* Reconstruct the matched prefix from the address. *)
        Some (Prefix.make addr depth, v)

(** All matches of an address, most specific first. *)
let all_matches t addr =
  if Ip.family addr <> t.family then []
  else
    let max_depth = Ip.family_bits t.family in
    let rec go node depth acc =
      let acc =
        match node.value with
        | Some v -> (Prefix.make addr depth, v) :: acc
        | None -> acc
      in
      if depth >= max_depth then acc
      else
        let next = if Ip.bit addr depth then node.one else node.zero in
        match next with None -> acc | Some child -> go child (depth + 1) acc
    in
    go t.root 0 []

(** Fold over all bindings with their prefixes. *)
let fold f t init =
  (* Track the path bits to rebuild each prefix. *)
  let fam = t.family in
  let nbits = Ip.family_bits fam in
  let path_to_prefix rev_bits depth =
    let ip =
      match fam with
      | Ip.Ipv4 ->
          let rec build n i = function
            | [] -> n
            | b :: rest ->
                build (if b then n lor (1 lsl (31 - i)) else n) (i - 1) rest
          in
          (* rev_bits has the deepest bit first; positions depth-1 .. 0 *)
          Ip.V4 (build 0 (depth - 1) rev_bits)
      | Ip.Ipv6 ->
          let rec build n i = function
            | [] -> n
            | b :: rest ->
                build
                  (if b then Int128.set_bit n (nbits - 1 - i) else n)
                  (i - 1) rest
          in
          Ip.V6 (build Int128.zero (depth - 1) rev_bits)
    in
    Prefix.make ip depth
  in
  let rec go node rev_bits depth acc =
    let acc =
      match node.value with
      | Some v -> f (path_to_prefix rev_bits depth) v acc
      | None -> acc
    in
    let acc =
      match node.zero with
      | Some child -> go child (false :: rev_bits) (depth + 1) acc
      | None -> acc
    in
    match node.one with
    | Some child -> go child (true :: rev_bits) (depth + 1) acc
    | None -> acc
  in
  go t.root [] 0 init

let to_list t = fold (fun p v acc -> (p, v) :: acc) t [] |> List.rev

let cardinal t = fold (fun _ _ n -> n + 1) t 0

(** Mutable batch construction.  [add] on the persistent trie copies the
    whole root-to-leaf spine per insertion; building a FIB of n prefixes
    that way allocates O(n · depth) nodes.  The builder inserts into a
    mutable radix structure (one node allocated per new spine element
    only) and freezes it into the persistent representation once. *)
module Builder = struct
  type 'a bnode = {
    mutable bvalue : 'a option;
    mutable bzero : 'a bnode option;
    mutable bone : 'a bnode option;
  }

  type 'a builder = { b_family : Ip.family; b_root : 'a bnode }

  let fresh () = { bvalue = None; bzero = None; bone = None }

  let create family = { b_family = family; b_root = fresh () }

  (** Walk (creating spine nodes as needed) to the node of [prefix]. *)
  let node_of b prefix =
    if Prefix.family prefix <> b.b_family then
      invalid_arg "Trie.Builder: family"
    else begin
      let ip = Prefix.ip prefix and len = Prefix.len prefix in
      let node = ref b.b_root in
      for depth = 0 to len - 1 do
        let n = !node in
        if Ip.bit ip depth then
          match n.bone with
          | Some c -> node := c
          | None ->
              let c = fresh () in
              n.bone <- Some c;
              node := c
        else
          match n.bzero with
          | Some c -> node := c
          | None ->
              let c = fresh () in
              n.bzero <- Some c;
              node := c
      done;
      !node
    end

  (** Bind [prefix] to [v], replacing any previous binding. *)
  let add b prefix v = (node_of b prefix).bvalue <- Some v

  (** Apply [f] to the current binding (or [None]). *)
  let update b prefix f =
    let n = node_of b prefix in
    n.bvalue <- f n.bvalue

  (** Freeze into the persistent trie. *)
  let build b =
    let rec freeze (n : 'a bnode) : 'a node =
      {
        value = n.bvalue;
        zero = Option.map freeze n.bzero;
        one = Option.map freeze n.bone;
      }
    in
    { family = b.b_family; root = freeze b.b_root }
end

(** Batch-build a trie from bindings (later bindings of the same prefix
    win, as with repeated {!add}). *)
let of_list family bindings =
  let b = Builder.create family in
  List.iter (fun (p, v) -> Builder.add b p v) bindings;
  Builder.build b

module Dual = struct
  (** A pair of tries covering both families. *)
  type nonrec 'a t = { v4 : 'a t; v6 : 'a t }

  let empty = { v4 = empty Ip.Ipv4; v6 = empty Ip.Ipv6 }

  let is_empty t = is_empty t.v4 && is_empty t.v6

  let add t prefix v =
    match Prefix.family prefix with
    | Ip.Ipv4 -> { t with v4 = add t.v4 prefix v }
    | Ip.Ipv6 -> { t with v6 = add t.v6 prefix v }

  let update t prefix f =
    match Prefix.family prefix with
    | Ip.Ipv4 -> { t with v4 = update t.v4 prefix f }
    | Ip.Ipv6 -> { t with v6 = update t.v6 prefix f }

  let remove t prefix =
    match Prefix.family prefix with
    | Ip.Ipv4 -> { t with v4 = remove t.v4 prefix }
    | Ip.Ipv6 -> { t with v6 = remove t.v6 prefix }

  let find_exact t prefix =
    match Prefix.family prefix with
    | Ip.Ipv4 -> find_exact t.v4 prefix
    | Ip.Ipv6 -> find_exact t.v6 prefix

  let longest_match t addr =
    match Ip.family addr with
    | Ip.Ipv4 -> longest_match t.v4 addr
    | Ip.Ipv6 -> longest_match t.v6 addr

  let all_matches t addr =
    match Ip.family addr with
    | Ip.Ipv4 -> all_matches t.v4 addr
    | Ip.Ipv6 -> all_matches t.v6 addr

  let fold f t init = fold f t.v6 (fold f t.v4 init)

  let to_list t = to_list t.v4 @ to_list t.v6

  let cardinal t = cardinal t.v4 + cardinal t.v6

  (** Mutable batch construction over both families (see {!Trie.Builder}). *)
  module Builder = struct
    type 'a builder = { bv4 : 'a Builder.builder; bv6 : 'a Builder.builder }

    let create () =
      { bv4 = Builder.create Ip.Ipv4; bv6 = Builder.create Ip.Ipv6 }

    let add b prefix v =
      match Prefix.family prefix with
      | Ip.Ipv4 -> Builder.add b.bv4 prefix v
      | Ip.Ipv6 -> Builder.add b.bv6 prefix v

    let update b prefix f =
      match Prefix.family prefix with
      | Ip.Ipv4 -> Builder.update b.bv4 prefix f
      | Ip.Ipv6 -> Builder.update b.bv6 prefix f

    let build b = { v4 = Builder.build b.bv4; v6 = Builder.build b.bv6 }
  end

  let of_list bindings =
    let b = Builder.create () in
    List.iter (fun (p, v) -> Builder.add b p v) bindings;
    Builder.build b
end
