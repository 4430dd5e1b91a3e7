(** The route monitoring system (paper §2.1).

    [Bgp_agent] peers with every router, so only the {e advertised} view
    is collected: best routes only (no ECMP alternatives), possibly
    rewritten next hops, and no non-propagating attributes (weight, admin
    preference, IGP cost).  [Bmp] (BGP Monitoring Protocol) mirrors the
    full BGP RIB faithfully.  Both are subject to injected
    {!Faults.t}. *)

open Hoyan_net

type mode = Bgp_agent | Bmp

type t = { mode : mode; faults : Faults.t list }

val create : ?mode:mode -> ?faults:Faults.t list -> unit -> t

(** Is the device's collection agent down (an injected fault)? *)
val agent_down : t -> string -> bool

(** What the monitoring system collects, given the live network's true
    global RIB. *)
val observe : t -> Rib.t -> Route.t list

(** The live network's [show] interface for one (device, prefix): full
    fidelity, strictly rate limited in production — callers only query
    high-priority prefixes (§5.1). *)
val show_live : Rib.t -> device:string -> prefix:Prefix.t -> Route.t list
