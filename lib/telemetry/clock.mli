(** Monotonic process clock (strictly increasing across domains).

    Wall time clamped through an atomic high-water mark, standing in for
    CLOCK_MONOTONIC which the stdlib does not expose. *)

(** Nanoseconds since process start. *)
val now_ns : unit -> int64

val ns_to_us : int64 -> float
val ns_to_ms : int64 -> float
