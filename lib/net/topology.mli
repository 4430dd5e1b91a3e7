(** Network topology: devices, interfaces and links.

    Links are stored as directed edges (two per physical link) because
    traffic load is accounted per direction.  Change plans can add and
    remove devices and links. *)

type role = Wan_core | Wan_border | Dc_core | Dc_border | Isp_peer | Rr

type device = {
  name : string;
  vendor : string;  (** key into the {!Hoyan_config.Vsb} profile table *)
  asn : int;
  router_id : Ip.t;  (** doubles as the loopback address *)
  region : string;
  role : role;
}

type iface = { dev : string; ifname : string; addr : Ip.t option }

type edge = {
  src : string;
  src_if : string;
  dst : string;
  dst_if : string;
  bandwidth : float;  (** bits per second *)
}

type t

val empty : t

val add_device : t -> device -> t

val device : t -> string -> device option

(** @raise Invalid_argument on unknown devices. *)
val device_exn : t -> string -> device

val devices : t -> device list

val device_names : t -> string list

val num_devices : t -> int

val add_iface : t -> iface -> t

val ifaces : t -> string -> iface list

(** Adds both directed edges of a physical link. *)
val add_link :
  t ->
  a:string ->
  a_if:string ->
  b:string ->
  b_if:string ->
  bandwidth:float ->
  t

(** Removes every (parallel) link between the pair, both directions. *)
val remove_link : t -> a:string -> b:string -> t

(** Removes the device together with all its links and interfaces. *)
val remove_device : t -> string -> t

val out_edges : t -> string -> edge list

val neighbors : t -> string -> string list

val edges : t -> edge list

(** Physical link count (directed edges / 2). *)
val num_links : t -> int

(** The directed edge from [a] to [b], if any (first parallel link). *)
val edge_between : t -> string -> string -> edge option

val link_key : edge -> string
